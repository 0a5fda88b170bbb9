import dataclasses
import hashlib
import inspect
import math
import time

import networkx as nx
import numpy as np
import pytest

import thetagraph.graph
import thetagraph.properties
from thetagraph import groups
from thetagraph.analysis import analyze_group
from thetagraph.graph import ThetaGraph, build_theta, from_adjacency, prime_order_set
from thetagraph.groups import (
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_orders,
    heisenberg,
)
from thetagraph.properties import (
    CrossCheckError,
    _hamiltonian_search,
    _min_cut,
    _planar_graph_side,
    _toughness_refutation,
    components_after_removal,
    diameter,
    domination_number,
    girth,
    is_complete,
    is_connected,
    is_eulerian,
    is_hamiltonian,
    is_planar,
    is_singleton_dominating,
    open_problem_classify,
    planarity_decision,
    validate_cycle,
    vertex_connectivity,
)
from thetagraph.verify import corrupting_builder

from dense_view import edge_list


def _nx_graph(t):
    g = nx.Graph()
    g.add_nodes_from(range(t.n_vertices))
    g.add_edges_from(edge_list(t))
    return g


def _small_graphs(max_order):
    """Every built-in group up to max_order, built correctly and corrupted."""
    for _, _, _, g in groups.enumerate_groups(max_order, groups.FAMILIES):
        yield build_theta(g)
        yield corrupting_builder(g)


# ---------------------------------------------------------------------------
# connectivity / diameter / girth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(5, 1), (6, 2), (9, 2)])
def test_connected_and_diameter(n, expected):
    t = build_theta(cyclic(n))
    assert is_connected(t)
    assert diameter(t) == expected


def test_is_connected_reads_the_universal_identity_without_bfs(monkeypatch):
    def fail(*args):
        pytest.fail("a search ran")

    monkeypatch.setattr(thetagraph.properties, "components_after_removal", fail)
    monkeypatch.setattr(groups.TwinQuotient, "expansion", property(fail))
    small = [build(*args) for _, _, _, build, args in groups.group_keys(64, groups.FAMILIES)]
    for g in (cyclic(1), cyclic(2), *small):
        assert is_connected(build_theta(g)), g.describe()


def test_diameter_matches_networkx_on_samples():
    # enumerate_groups starts the cyclic family at order 3
    for t in (build_theta(cyclic(1)), build_theta(cyclic(2)), *_small_graphs(64)):
        h = _nx_graph(t)
        if nx.is_connected(h):
            assert diameter(t) == nx.diameter(h), t.group.describe()
        else:
            with pytest.raises(CrossCheckError):
                diameter(t)


def test_diameter_of_a_large_star_with_the_identity_last_is_fast():
    orders = [4] * 2047 + [1]
    t = build_theta(from_orders([str(k) for k in range(2048)], orders))
    started = time.perf_counter()
    assert diameter(t) == 2
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("n", [3, 4, 9])
def test_girth_examples(n):
    assert girth(build_theta(cyclic(n))) == 3


def test_girth_infinite_on_forest_like_input():
    # star: one identity, one involution-free spread of pairwise non-adjacent
    # composite orders (orders 4 and 8 meet at gcd 4)
    g = from_orders(["e", "a", "b"], [1, 4, 8])
    assert girth(build_theta(g)) == math.inf


def test_girth_matches_networkx_on_samples():
    for g in (cyclic(8), cyclic(9), dihedral(4), dicyclic(3)):
        t = build_theta(g)
        assert girth(t) == nx.girth(_nx_graph(t))


def _theta_from_nx(h):
    """A ThetaGraph with the adjacency of the networkx graph h; the group
    is a placeholder of the same size, since girth and the graph side of
    planarity read only the graph."""
    h = nx.convert_node_labels_to_integers(h)
    n = h.number_of_nodes()
    adj = nx.to_numpy_array(h, nodelist=range(n), dtype=bool)
    g = from_orders([f"v{k}" for k in range(n)], [1] + [2] * (n - 1))
    return from_adjacency(g, adj)


@pytest.mark.parametrize(
    "h, expected",
    [
        (nx.cycle_graph(4), 4),
        (nx.hypercube_graph(3), 4),
        (nx.complete_bipartite_graph(3, 5), 4),
        (nx.cycle_graph(5), 5),
        (nx.petersen_graph(), 5),
        (nx.heawood_graph(), 6),
        (nx.cycle_graph(7), 7),
        (nx.LCF_graph(30, [-13, -9, 7, -7, 9, 13], 5), 8),  # Tutte-Coxeter graph
        (nx.disjoint_union(nx.cycle_graph(7), nx.cycle_graph(5)), 5),
        (nx.disjoint_union(nx.path_graph(4), nx.cycle_graph(6)), 6),
        (nx.lollipop_graph(4, 3), 3),
        (nx.wheel_graph(6), 3),
        (nx.star_graph(5), math.inf),
        (nx.path_graph(6), math.inf),
        (nx.balanced_tree(2, 3), math.inf),
        (nx.disjoint_union(nx.star_graph(3), nx.path_graph(3)), math.inf),
        (nx.empty_graph(3), math.inf),
    ],
)
def test_girth_matches_networkx_on_hand_built_graphs(h, expected):
    # only the wheel and the star have a universal vertex, as every prime
    # coprime graph does; girth refuses the others rather than search them
    t = _theta_from_nx(h)
    assert nx.girth(h) == expected
    if (t.degrees == t.n_vertices - 1).any():
        assert girth(t) == expected
    else:
        with pytest.raises(CrossCheckError, match="the identity should be universal"):
            girth(t)


@pytest.mark.parametrize("fact", [is_connected, diameter, girth])
def test_graphs_without_a_universal_vertex_raise_cross_check_error(fact):
    # the identity of a group is universal, so a graph with no universal vertex
    # contradicts the group side; P6 and C6 are connected, corrupted cyclic(2) is not
    hs = [nx.path_graph(6), nx.cycle_graph(6), nx.petersen_graph()]
    for t in [*(_theta_from_nx(h) for h in hs), corrupting_builder(cyclic(2))]:
        with pytest.raises(CrossCheckError, match="the identity should be universal"):
            fact(t)


@pytest.mark.parametrize("build", [build_theta, corrupting_builder])
def test_girth_matches_networkx_on_all_small_groups(build):
    for _, _, _, g in groups.enumerate_groups(64, groups.FAMILIES):
        t = build(g)
        assert girth(t) == nx.girth(_nx_graph(t)), t.group.describe()


@pytest.mark.parametrize("identity", [0, 4095])
def test_girth_of_a_large_star_is_settled_before_any_search(monkeypatch, identity):
    # the identity is universal and elements of order 4 are pairwise
    # non-adjacent, so this graph is a star on 4096 vertices
    orders = [4] * 4096
    orders[identity] = 1
    t = build_theta(from_orders([str(k) for k in range(4096)], orders))
    calls = []
    count = thetagraph.properties.components_after_removal
    monkeypatch.setattr(
        thetagraph.properties, "components_after_removal", lambda *a: calls.append(a) or count(*a)
    )
    monkeypatch.setattr(groups.TwinQuotient, "expansion", property(lambda q: calls.append(q)))
    assert girth(t) == math.inf
    assert calls == []  # the edge count alone settles it


# ---------------------------------------------------------------------------
# eulerian / complete / domination
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g, expected",
    [
        (cyclic(5), True),
        (cyclic(9), False),
        (elementary_abelian(3, 2), True),
        (heisenberg(3), True),
        (dihedral(7), False),
        (cyclic(15), False),
    ],
)
def test_eulerian(g, expected):
    assert is_eulerian(build_theta(g)) is expected


@pytest.mark.parametrize(
    "g, expected",
    [
        (heisenberg(3), True),
        (cyclic(9), False),
        (dihedral(5), True),
        (elementary_abelian(2, 4), True),
        (dicyclic(2), False),
    ],
)
def test_complete(g, expected):
    assert is_complete(build_theta(g)) is expected


def test_singleton_domination():
    t12 = build_theta(cyclic(12))
    assert is_singleton_dominating(t12, 6)  # order 2
    assert not is_singleton_dominating(t12, 1)  # order 12
    t6 = build_theta(cyclic(6))
    assert not is_singleton_dominating(t6, 1)
    for g in (cyclic(10), dihedral(6), dicyclic(3)):
        t = build_theta(g)
        assert is_singleton_dominating(t, t.group.identity_index)


def test_singleton_domination_reads_each_vertex_on_any_graph_of_the_group():
    # the identity's class is read off the classes on the group's own graph, and off its vertex
    # on a graph of another quotient: the same graph with its classes renumbered, and a graph
    # whose identity lost an edge, which must fail the identity's criterion
    # (a custom Z_4 and a product list the identity second, so that renumbered, its class is not 0)
    second = from_orders(["a", "e", "b", "c"], [4, 1, 2, 4])
    built_in = [build(*args) for *_, build, args in groups.group_keys(60, groups.FAMILIES)]
    for g in [*built_in, second, direct_product(from_orders(["a", "e"], [2, 1]), cyclic(4))]:
        t = build_theta(g)
        for u in (t, from_adjacency(g, t.adj)):
            dominating = [is_singleton_dominating(u, v) for v in range(u.n_vertices)]
            assert dominating == (t.degrees == t.n_vertices - 1).tolist(), g.describe()
        with pytest.raises(CrossCheckError, match=rf"domination criteria disagree .* at vertex {g.identity_index}\b"):
            is_singleton_dominating(corrupting_builder(g), g.identity_index)


def _count_primality_calls(monkeypatch):
    """Count calls of every primality predicate bound by the group, graph
    and property layers."""
    calls = []
    for module in (groups, thetagraph.graph, thetagraph.properties):
        for name in ("is_prime", "is_one_or_prime"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, lambda v, fn=fn: calls.append(v) or fn(v))
    return calls


@pytest.mark.parametrize(
    "orders",
    [
        [1] + [2**61 - 1] * 511,  # one huge prime order: a complete graph
        list(cyclic(720).orders),  # 30 order classes, ten of them composite
        list(dicyclic(60).orders),
    ],
)
def test_group_side_criteria_test_primality_once_per_distinct_order(monkeypatch, orders):
    g = from_orders([f"g{k}" for k in range(len(orders))], orders)
    built = build_theta(g)
    # a fresh spec, so that its order classes are derived while counting
    t = ThetaGraph(dataclasses.replace(g), built.quotient)
    calls = _count_primality_calls(monkeypatch)
    is_complete(t)
    prime_order_set(t)
    is_eulerian(t)
    for v in range(t.n_vertices):
        is_singleton_dominating(t, v)
    _toughness_refutation(t)
    assert 0 < len(calls) <= len(set(orders))


def test_domination_number_is_one_with_identity_witness():
    for g in (cyclic(9), dihedral(5), heisenberg(2)):
        t = build_theta(g)
        number, witness = domination_number(t)
        assert number == 1
        assert witness == frozenset({t.group.identity_index})


# ---------------------------------------------------------------------------
# planarity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(8, True), (9, False), (5, False), (3, True), (16, True)])
def test_planarity_examples(n, expected):
    assert is_planar(build_theta(cyclic(n))) is expected


def test_planarity_matches_networkx_on_samples():
    for g in (cyclic(10), cyclic(32), dihedral(3), dicyclic(2), cyclic(27)):
        t = build_theta(g)
        assert is_planar(t) is bool(nx.check_planarity(_nx_graph(t))[0])


def _nx_planar(t):
    """networkx's verdict. check_planarity rejects more than 3n - 6 edges
    (n >= 3) before it reads an edge; doing that here first spares building
    the dense graphs."""
    n = t.n_vertices
    if n >= 3 and t.edge_count > 3 * n - 6:
        return False
    return bool(nx.check_planarity(_nx_graph(t))[0])


def _no_rule_decides(t):
    """At most one universal vertex on five or more vertices, within the edge
    bound: no planarity rule decides such a graph, and no group has one."""
    n = t.n_vertices
    return n >= 5 and t.edge_count <= 3 * n - 6 and int((t.degrees == n - 1).sum()) <= 1


def test_planar_graph_side_matches_networkx_on_all_small_groups():
    planar, raised = set(), set()
    for _, family, params, g in groups.enumerate_groups(200, groups.FAMILIES):
        for build in (build_theta, corrupting_builder):
            t = build(g)
            if _no_rule_decides(t):
                with pytest.raises(CrossCheckError, match="universal vertex on"):
                    _planar_graph_side(t)
                raised.add((build.__name__, family, params))
                continue
            value, method = _planar_graph_side(t)
            assert value is _nx_planar(t), (g.describe(), build.__name__)
            if build is build_theta:
                assert planarity_decision(t) == (value, method)
                if value:
                    planar.add((family, params))
    # the flipped bit is an edge of the identity, which leaves one universal vertex where
    # Θ(G) had two: the cyclic 2-groups and the generalised quaternion groups, from order 8 on
    assert raised == {("corrupting_builder", "cyclic", f"n={2**k}") for k in range(3, 8)} | {
        ("corrupting_builder", "dicyclic", f"n={2**j}") for j in range(1, 6)
    }
    # |G| <= 4, the cyclic 2-groups and the generalised quaternion groups dicyclic(2^j)
    expected = {
        (family, params)
        for order, family, params, g in groups.enumerate_groups(200, groups.FAMILIES)
        if order <= 4 or (family in ("cyclic", "dicyclic") and g.params["n"] & (g.params["n"] - 1) == 0)
    }
    assert planar == expected
    assert ("dicyclic", "n=32") in planar and ("cyclic", "n=128") in planar


def _join_k2(h):
    """K_2 + h: two new vertices adjacent to each other and to every vertex of h."""
    return nx.complement(nx.disjoint_union(nx.complement(h), nx.empty_graph(2)))


@pytest.mark.parametrize(
    "h, expected, method",
    [
        (nx.complete_graph(4), True, "small_graph"),
        (nx.complete_graph(5), False, "euler_bound"),
        (_join_k2(nx.cycle_graph(4)), False, "euler_bound"),  # 13 edges on 6 vertices
        *((_join_k2(nx.path_graph(k)), True, "universal_vertices") for k in (3, 4, 7)),
        (_join_k2(nx.disjoint_union(nx.path_graph(3), nx.path_graph(2))), True, "universal_vertices"),
        (_join_k2(nx.empty_graph(5)), True, "universal_vertices"),
        (_join_k2(nx.disjoint_union(nx.star_graph(3), nx.empty_graph(1))), False, "universal_vertices"),
        (_join_k2(nx.disjoint_union(nx.cycle_graph(5), nx.path_graph(2))), False, "universal_vertices"),
        (_join_k2(nx.disjoint_union(nx.cycle_graph(3), nx.empty_graph(2))), False, "universal_vertices"),
        (nx.complete_multipartite_graph(1, 1, 1, 2), True, "universal_vertices"),  # K_5 minus an edge
        (nx.complete_multipartite_graph(1, 1, 1, 3), False, "universal_vertices"),  # K_2 + K_{1,3}
        # at most one universal vertex on five or more: the graph of no group, so no rule decides it
        (nx.complete_bipartite_graph(3, 3), False, "raises"),
        (nx.wheel_graph(7), True, "raises"),  # only the hub is universal
        (nx.cycle_graph(6), True, "raises"),
    ],
)
def test_planarity_methods_on_hand_built_graphs(h, expected, method):
    t = _theta_from_nx(h)
    assert _no_rule_decides(t) is (method == "raises")
    if method == "raises":
        with pytest.raises(CrossCheckError, match="universal vertex on"):
            _planar_graph_side(t)
    else:
        assert _planar_graph_side(t) == (expected, method)
    assert _nx_planar(t) is expected


# ---------------------------------------------------------------------------
# hamiltonicity
# ---------------------------------------------------------------------------


def test_hamiltonian_z6_yes_with_certificate():
    t = build_theta(cyclic(6))
    verdict = is_hamiltonian(t)
    assert verdict.status == "yes"
    assert validate_cycle(t, verdict.cycle)


def test_hamiltonian_z4_cycle():
    t = build_theta(cyclic(4))
    verdict = is_hamiltonian(t)
    assert verdict.status == "yes"
    assert validate_cycle(t, verdict.cycle)
    # 0-1-2-3-0 is one valid certificate
    assert validate_cycle(t, (0, 1, 2, 3))


def test_hamiltonian_z15_toughness_refuted():
    t = build_theta(cyclic(15))
    verdict = is_hamiltonian(t)
    assert verdict.status == "no"
    assert verdict.method == "toughness_refuted"
    cut = verdict.witness_cut
    assert cut == frozenset(k for k in range(15) if math.gcd(k, 15) != 1)
    assert len(cut) == 7
    assert components_after_removal(t, cut) == 8


def test_hamiltonian_small_graphs_are_no():
    assert is_hamiltonian(build_theta(cyclic(1))).status == "no"
    assert is_hamiltonian(build_theta(cyclic(2))).status == "no"


@pytest.mark.parametrize(
    "h",
    [nx.disjoint_union(nx.cycle_graph(4), nx.complete_graph(3)), nx.empty_graph(3),
     nx.disjoint_union(nx.complete_graph(3), nx.complete_graph(3))],
)
def test_hamiltonian_is_no_on_disconnected_graphs(h):
    # no connectivity short-cut: Ore's condition fails and the search finds no cycle
    verdict = is_hamiltonian(_theta_from_nx(h))
    assert (verdict.status, verdict.cycle, verdict.method) == ("no", None, "exact_search")


def test_hamiltonian_exact_search_branch():
    # identity + three order-4 elements + one each of orders 6 and 8:
    # Ore fails (two order-4 vertices have degree sum 4 < 6) and no
    # toughness candidate separates, so the exact search must decide.
    g = from_orders(["e", "a", "b", "c", "d", "f"], [1, 4, 4, 4, 6, 8])
    t = build_theta(g)
    verdict = is_hamiltonian(t)
    assert verdict.method == "exact_search"
    assert verdict.status == "no"
    assert verdict.nodes_explored > 0


def test_hamiltonian_budget_exhaustion_is_inconclusive():
    g = from_orders(["e", "a", "b", "c", "d", "f"], [1, 4, 4, 4, 6, 8])
    t = build_theta(g)
    verdict = is_hamiltonian(t, node_budget=1)
    assert verdict.status == "inconclusive"


def test_exact_search_finds_cycle_when_forced():
    t = build_theta(cyclic(6))
    status, cycle, nodes = _hamiltonian_search(t, 10**6)
    assert status == "yes"
    assert validate_cycle(t, cycle)
    assert nodes >= 6


@pytest.mark.parametrize(
    "g, build, status, nodes, cycle",
    [
        (from_orders(list("eabcdf"), [1, 4, 4, 4, 6, 8]), build_theta, "no", 35, None),
        (cyclic(4), corrupting_builder, "no", 6, None),
        (direct_product(cyclic(2), cyclic(4)), corrupting_builder, "yes", 8,
         (1, 2, 3, 0, 5, 4, 7, 6)),
        (direct_product(cyclic(2), cyclic(6)), corrupting_builder, "yes", 12,
         (1, 2, 5, 0, 7, 3, 8, 4, 10, 6, 11, 9)),
    ],
)
def test_exact_search_verdicts_are_pinned(g, build, status, nodes, cycle):
    verdict = is_hamiltonian(build(g))
    assert verdict.method == "exact_search"
    assert (verdict.status, verdict.nodes_explored, verdict.cycle) == (status, nodes, cycle)


@pytest.mark.parametrize(
    "g, budget, expected",
    [
        (cyclic(9), 10**6, ("no", None, 1021)),
        (dicyclic(3), 10**6, ("yes", (6, 1, 7, 5, 8, 0, 9, 2, 10, 3, 11, 4), 12)),
        (cyclic(30), 1000, ("inconclusive", None, 1001)),
    ],
)
def test_search_results_are_pinned(g, budget, expected):
    assert _hamiltonian_search(build_theta(g), budget) == expected


def test_search_deeper_than_the_recursion_limit():
    t = build_theta(cyclic(1201))
    status, cycle, nodes = _hamiltonian_search(t, 10**4)
    assert status == "yes" and nodes == 1201
    assert validate_cycle(t, cycle)


# sha256 of ",".join(cycle) for the Ore certificate cycles, recorded when
# Palmer's rotation started from the degree interleave; the interleave has no
# gap on any of these graphs, so each digest pins the starting cycle itself
ORE_CYCLE_SHA256 = [
    (dihedral(60), "0a3834098e31d6d8a18dcf8d8680a3d6ff1ab326e4c0bdbf411bfa1e4ef1328e"),
    (dicyclic(15), "1a692fe6a50d7ab1ff8d3fbc597b2c645c664f3f4d61b8e73ab445ba239c721b"),
    (heisenberg(7), "70016835b56cf386f015cc2bf0e5431a968630b6485df429efcbfe654a699f98"),
    (dihedral(35), "e5aa0eabbeeec182c64820f27b46461a983b2885462d3332ee32ea327e0939ad"),
    (cyclic(1201), "8ea0d6b96290f9a4c0ce41d56f15ca71d49ced584c3d1af731dfe89eaba927eb"),
]


@pytest.mark.parametrize("g, digest", ORE_CYCLE_SHA256)
def test_ore_cycles_are_pinned(g, digest):
    verdict = is_hamiltonian(build_theta(g))
    assert verdict.method == "ore_sufficient"
    assert hashlib.sha256(",".join(map(str, verdict.cycle)).encode()).hexdigest() == digest


def _ore_holds(t):
    """Every non-adjacent pair i < j has a degree sum of at least n."""
    ii, jj = np.nonzero(np.triu(~t.adj, k=1))
    return t.n_vertices >= 3 and bool((t.degrees[ii] + t.degrees[jj] >= t.n_vertices).all())


def _random_graph(n, p, seed):
    """A seeded G(n, p) over a placeholder group of n elements."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, k=1)
    return from_adjacency(from_orders([f"v{k}" for k in range(n)], [1] + [2] * (n - 1)), upper | upper.T)


@pytest.fixture
def gap_scans(monkeypatch):
    """Count the calls of properties._gaps: _ore_cycle makes one per rotation
    step, one more for the loop test that finds no gap, and one in validate_cycle."""
    calls = []
    gaps = thetagraph.properties._gaps
    monkeypatch.setattr(thetagraph.properties, "_gaps", lambda t, c: calls.append(1) or gaps(t, c))
    return calls


def test_ore_cycles_are_valid_on_every_small_graph_and_at_scale(gap_scans):
    graphs = [t for t in _small_graphs(200) if _ore_holds(t)]
    graphs.append(build_theta(dihedral(2000)))  # n = 4000; the interleave leaves it no gap
    graphs.append(_random_graph(2000, 0.75, seed=1))  # the interleave leaves it hundreds of gaps
    assert len(graphs) > 100 and _ore_holds(graphs[-2]) and _ore_holds(graphs[-1])
    for t in graphs:
        gap_scans.clear()
        verdict = is_hamiltonian(t)
        assert verdict.method == "ore_sufficient", t.group.describe()
        assert validate_cycle(t, verdict.cycle), t.group.describe()
    assert len(gap_scans) > 100  # the rotation ran on the random graph


def test_the_interleave_leaves_no_gap_on_built_in_ore_groups(gap_scans):
    ore = 0
    for _, _, _, g in groups.enumerate_groups(200, groups.FAMILIES):
        t = build_theta(g)
        if not _ore_holds(t):
            continue
        ore += 1
        gap_scans.clear()
        assert thetagraph.properties._ore_cycle(t)
        assert len(gap_scans) == 2, g.describe()  # the loop test and validate_cycle
    assert ore > 100


def test_a_rotation_stuck_on_a_graph_below_the_ore_bound_fails_the_cycle_validation():
    # the star K_{1,3}: its interleave 1, 0, 2, 3 has the gap 2 - 3, whose ends have no crossing
    star = np.zeros((4, 4), dtype=bool)
    star[0, 1:] = star[1:, 0] = True
    t = from_adjacency(from_orders(["e", "a", "b", "c"], [1, 2, 2, 2]), star)
    assert not _ore_holds(t)
    with pytest.raises(CrossCheckError, match="Ore construction produced an invalid cycle"):
        thetagraph.properties._ore_cycle(t)


@pytest.mark.parametrize(
    "n, cycle",
    [(3, (-1, 0, 1)), (5, (0, 1, 2, 3, -1)), (3, (0, 1, 3)), (5, (0, 1, 2, 3, 4, 0)), (5, (0, 1, 2, 3))],
)
def test_validate_cycle_rejects_what_is_not_each_vertex_once(n, cycle):
    # numpy would read -1 as the last vertex; K_n has every hop
    assert validate_cycle(build_theta(cyclic(n)), cycle) is False


@pytest.mark.parametrize("cycle", [(0, True, 2.0), (0, 1, 2.0), (False, 1, 2), (0.0, 1.0, 2.0)])
def test_validate_cycle_rejects_bools_and_floats(cycle):
    # each compares equal to a vertex index, so a sorted comparison alone accepts it
    assert validate_cycle(build_theta(cyclic(3)), cycle) is False


def test_validate_cycle_accepts_python_and_numpy_ints():
    t = build_theta(cyclic(3))
    assert validate_cycle(t, (0, 1, 2)) and validate_cycle(t, (np.int32(0), np.int64(1), 2))
    assert validate_cycle(t, np.arange(3))


@pytest.mark.parametrize(
    "cycle",
    [np.array([0, 1, 1]), np.array([0, 1, 3]), np.array([[0, 1, 2]]), np.array([0, 1]), np.array([2, 1, 0, 3]),
     np.array([0, 1, 2], dtype=bool), np.array([0.0, 1.0, 2.0]), np.array([0, 1, 2], dtype=object)],
)
def test_validate_cycle_reads_an_int_array_by_its_dtype_and_rejects_the_rest(cycle):
    # bool, float and object arrays go through the per-element test; only the last passes it
    assert validate_cycle(build_theta(cyclic(3)), cycle) is (cycle.dtype == object)
    assert validate_cycle(build_theta(cyclic(3)), np.array([2, 0, 1], dtype=np.uint8))


def _dense_ore_holds(t):
    """Ore's condition on the n x n view: no two distinct non-adjacent vertices with d_u + d_v < n."""
    n, d = t.n_vertices, t.degrees
    return not (~t.adj & (d[:, None] + d < n) & ~np.eye(n, dtype=bool)).any()


def _listed_toughness_refutation(t):
    """The candidate cuts as vertex sets, tried in turn on ``components_after_removal``."""
    oc = t.group.order_classes
    cuts = [frozenset(np.flatnonzero(oc.class_of != c).tolist()) for c in np.flatnonzero(~oc.one_or_prime)]
    for cut in [*cuts, prime_order_set(t)]:
        if cut and len(cut) < t.n_vertices and (comps := components_after_removal(t, cut)) > len(cut):
            return cut, comps
    return None


def test_ore_and_toughness_on_the_classes_match_the_dense_view_on_every_graph_to_order_200():
    # corrupted graphs have classes that are not the order classes; the budget of 0 stops at once
    ore = refuted = 0
    for t in _small_graphs(200):
        if t.n_vertices < 3:
            continue
        verdict = is_hamiltonian(t, node_budget=0)
        assert (verdict.method == "ore_sufficient") == _dense_ore_holds(t), t.group.describe()
        assert _toughness_refutation(t) == _listed_toughness_refutation(t), t.group.describe()
        ore += verdict.method == "ore_sufficient"
        refuted += verdict.method == "toughness_refuted"
    assert ore > 200 and refuted > 500


def test_a_toughness_candidate_that_keeps_one_class_searches_one_class(monkeypatch):
    # every element its own order, 1019 of them composite (6m): each composite class is a
    # candidate that keeps one class, and searching all k classes for it made the refutation cubic
    orders = [1, 2, 3, 5, 7] + [6 * m for m in range(1, 1020)]
    g = from_orders([str(k) for k in range(len(orders))], orders)
    visited = set()

    class Recording(list):
        """The neighbour rows of the classes, noting each class whose row is read."""

        def __getitem__(self, c):
            visited.add(c)
            return super().__getitem__(c)

    t = build_theta(g)
    q = t.quotient
    q.__dict__["rows"] = Recording(q.rows)  # in place of the cached rows
    components_left, searched = thetagraph.properties._components_left, []

    def recording(q, left):
        visited.clear()
        comps = components_left(q, left)
        searched.append((len(left), len(visited)))
        return comps

    monkeypatch.setattr(thetagraph.properties, "_components_left", recording)
    # the last candidate removes S(G) and leaves the 1019 composite classes, pairwise non-adjacent
    assert _toughness_refutation(t) == (frozenset(range(5)), 1019)
    assert searched[:-1] == [(1, 1)] * 1019 and searched[-1] == (1019, 1019)


def test_ore_on_the_classes_matches_the_dense_view_on_random_graphs():
    # a vertex alone in its class pairs with no one: in this 5-vertex graph v = 0 has degree 2 < 5/2,
    # and Ore's condition holds, as its non-neighbours 3 and 4 have degree 3
    adj = np.zeros((5, 5), dtype=bool)
    for u, v in [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        adj[u, v] = adj[v, u] = True
    graphs = [from_adjacency(cyclic(5), adj)]
    rng = np.random.default_rng(24)
    for n in rng.integers(3, 14, size=300).tolist():
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.3, 0.95), k=1)
        graphs.append(from_adjacency(cyclic(n), upper | upper.T))
    for t in graphs:
        verdict = is_hamiltonian(t, node_budget=0)
        assert (verdict.method == "ore_sufficient") == _dense_ore_holds(t), t.adj.astype(int)
    assert is_hamiltonian(graphs[0], node_budget=0).method == "ore_sufficient"


def test_hamiltonian_brute_force_agreement_small():
    # the pipeline verdict must agree with a plain exhaustive search
    for g in (cyclic(4), cyclic(6), cyclic(8), cyclic(9), dihedral(4), dicyclic(2)):
        t = build_theta(g)
        verdict = is_hamiltonian(t)
        oracle_status, oracle_cycle, _ = _hamiltonian_search(t, 10**7)
        assert verdict.status == oracle_status
        if verdict.status == "yes":
            assert validate_cycle(t, verdict.cycle)


# ---------------------------------------------------------------------------
# components after removal
# ---------------------------------------------------------------------------


def test_components_after_removal_examples():
    t15 = build_theta(cyclic(15))
    b = {k for k in range(15) if math.gcd(k, 15) != 1}
    assert components_after_removal(t15, b) == 8
    t6 = build_theta(cyclic(6))
    nongen = {k for k in range(6) if math.gcd(k, 6) != 1}
    assert components_after_removal(t6, nongen) == 2
    assert components_after_removal(t6, set()) == 1
    assert components_after_removal(t6, set(range(6))) == 0


def test_components_after_removal_matches_networkx_on_random_graphs():
    rng = np.random.default_rng(5)
    disconnected = 0
    for k in range(200):
        n = int(rng.integers(1, 20))
        t = _random_graph(n, float(rng.uniform(0.02, 0.5)), seed=k)
        g = _nx_graph(t)
        disconnected += not nx.is_connected(g)
        for removed in (set(), set(rng.choice(n, int(rng.integers(0, n + 1)), replace=False).tolist())):
            expected = nx.number_connected_components(g.subgraph(set(range(n)) - removed))
            assert components_after_removal(t, removed) == expected, (k, sorted(removed))
    assert disconnected > 50


def test_components_after_removal_matches_networkx_on_built_graphs_with_split_classes():
    # clique classes (orders 1 and primes) and independent ones (composite orders), built
    # and corrupted, with removed sets that cut through classes and repeat indices
    rng = np.random.default_rng(23)
    split = 0
    for g in (cyclic(30), dihedral(12), dicyclic(15), direct_product(cyclic(6), cyclic(10)),
              elementary_abelian(2, 3), heisenberg(3), from_orders(["e", "a", "b", "c"], [1, 4, 4, 4])):
        for t in (build_theta(g), corrupting_builder(g)):
            h, n, q = _nx_graph(t), t.n_vertices, t.quotient
            cuts = [sorted(prime_order_set(t))[1:], [0, 0, 1, 1]]
            cuts += [rng.choice(n, int(rng.integers(1, n + 1)), replace=True).tolist() for _ in range(30)]
            for removed in cuts:
                left = set(range(n)) - set(removed)
                expected = nx.number_connected_components(h.subgraph(left))
                assert components_after_removal(t, removed) == expected, (g.describe(), removed)
                split += len(set(q.class_of[list(left)].tolist()) & set(q.class_of[removed].tolist())) > 0
    assert split > 200


@pytest.mark.parametrize("removed", [{6}, {-1}, [0, 7]])
def test_components_after_removal_rejects_bad_indices(removed):
    # numpy would wrap a negative index to the end silently
    with pytest.raises(IndexError):
        components_after_removal(build_theta(cyclic(6)), removed)


# ---------------------------------------------------------------------------
# vertex connectivity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g, expected",
    [(cyclic(7), 6), (cyclic(15), 7), (dicyclic(3), 6), (cyclic(6), 4), (cyclic(12), 4)],
)
def test_vertex_connectivity_values(g, expected):
    conn = vertex_connectivity(build_theta(g))
    assert conn.kappa == expected


def test_vertex_connectivity_witness_revalidates():
    t = build_theta(cyclic(12))
    conn = vertex_connectivity(t)
    assert conn.method == "max_flow"
    assert len(conn.witness_cut) == conn.kappa
    assert components_after_removal(t, conn.witness_cut) >= 2
    assert conn.kappa <= t.degrees.min()


def test_vertex_connectivity_complete_rule():
    conn = vertex_connectivity(build_theta(cyclic(13)))
    assert conn.kappa == 12 and conn.method == "complete_rule" and conn.witness_cut is None


def test_vertex_connectivity_matches_networkx():
    for g in (
        cyclic(12),
        cyclic(18),
        cyclic(24),
        dihedral(6),
        dicyclic(3),
        dicyclic(5),
        direct_product(cyclic(4), cyclic(2)),
        heisenberg(2),
    ):
        t = build_theta(g)
        assert vertex_connectivity(t).kappa == nx.node_connectivity(_nx_graph(t))


def test_vertex_connectivity_matches_networkx_on_all_small_groups():
    for t in _small_graphs(32):
        conn = vertex_connectivity(t)
        assert conn.kappa == nx.node_connectivity(_nx_graph(t)), t.group.describe()
        if conn.witness_cut is not None:
            assert len(conn.witness_cut) == conn.kappa
            assert components_after_removal(t, conn.witness_cut) >= 2


def _kappa_oracle_graphs(count, seed):
    """K_u joined to random graphs H, u in 0..3: some H disconnected, some
    with a true twin and a false twin added, the vertices shuffled."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        h = nx.gnp_random_graph(int(rng.integers(2, 12)), float(rng.uniform(0.3, 0.95)), seed=k)
        if k % 5 == 0:
            h = nx.disjoint_union(h, nx.path_graph(int(rng.integers(1, 4))))
        if k % 2 == 0:
            v, m = int(rng.integers(h.number_of_nodes())), h.number_of_nodes()
            nbrs = list(h[v])
            h.add_edges_from((w, m) for w in [v, *nbrs])  # m: a true twin of v
            h.add_node(m + 1)
            h.add_edges_from((w, m + 1) for w in nbrs)  # m + 1: a false twin of v
        u = k % 4
        g = nx.disjoint_union(nx.complete_graph(u), h)
        g.add_edges_from((a, b) for a in range(u) for b in g if b != a)
        perm = rng.permutation(g.number_of_nodes()).tolist()
        shuffled = nx.Graph()
        shuffled.add_nodes_from(range(g.number_of_nodes()))
        shuffled.add_edges_from((perm[a], perm[b]) for a, b in g.edges())
        yield shuffled


def test_vertex_connectivity_of_universal_vertices_joined_to_random_graphs():
    seen = {"disconnected_h": 0, "flow": 0, "complete": 0}
    for g in _kappa_oracle_graphs(1000, seed=16):
        t = _theta_from_nx(g)
        conn = vertex_connectivity(t)
        assert conn.kappa == nx.node_connectivity(g)
        if conn.witness_cut is None:
            seen["complete"] += 1
            continue
        universal = set(np.flatnonzero(t.degrees == t.n_vertices - 1).tolist())
        seen["disconnected_h" if conn.witness_cut == universal else "flow"] += 1
        assert universal <= conn.witness_cut and len(conn.witness_cut) == conn.kappa
        assert components_after_removal(t, conn.witness_cut) >= 2
    assert min(seen.values()) > 20, seen


def test_vertex_connectivity_and_components_on_random_twin_quotients():
    # classes of every kind, clique classes outside U included, which neither build_theta
    # (a clique class has order 1 or a prime, so it is universal) nor from_adjacency makes
    rng = np.random.default_rng(31)
    seen = {"clique_in_h": 0, "flow": 0}
    for _ in range(300):
        k = int(rng.integers(1, 7))
        upper = np.triu(rng.random((k, k)) < rng.uniform(0.2, 0.9), k=1)
        adjacent = upper | upper.T | np.diag(rng.random(k) < 0.5)
        class_of = rng.permutation(np.repeat(np.arange(k), rng.integers(1, 4, size=k)))
        n = len(class_of)
        q = groups.TwinQuotient(adjacent, np.bincount(class_of, minlength=k), lambda: class_of)
        t = ThetaGraph(from_orders([f"v{v}" for v in range(n)], [1] + [2] * (n - 1)), q)
        g = _nx_graph(t)
        conn = vertex_connectivity(t)
        assert conn.kappa == nx.node_connectivity(g), (class_of, adjacent)
        universal = set(np.flatnonzero(t.degrees == n - 1).tolist())
        seen["flow"] += conn.method == "max_flow" and conn.witness_cut != universal
        seen["clique_in_h"] += bool((adjacent.diagonal() & (q.sizes > 1) & (q.degrees < n - 1)).any())
        removed = rng.choice(n, int(rng.integers(0, n + 1))).tolist()
        expected = nx.number_connected_components(g.subgraph(set(range(n)) - set(removed)))
        assert components_after_removal(t, removed) == expected, (class_of, adjacent, removed)
    assert min(seen.values()) > 30, seen


def _classes(q):
    """The vertices of each class of the quotient q, in class order."""
    return [np.flatnonzero(q.class_of == c) for c in range(len(q.sizes))]


def test_twin_classes_partition_into_twins():
    # the classes that from_adjacency reads off equal rows
    t = build_theta(dihedral(60))
    s = prime_order_set(t)
    classes = [frozenset(c.tolist()) for c in _classes(from_adjacency(t.group, t.adj).quotient)]
    h_classes = [c for c in classes if not c <= s]  # each universal vertex has a row of its own
    assert len(h_classes) == 8  # the composite orders 4, 6, 10, 12, 15, 20, 30 and 60
    assert set().union(*h_classes) == set(range(t.n_vertices)) - s
    for t in (t, corrupting_builder(dihedral(60)), build_theta(cyclic(30))):
        q = from_adjacency(t.group, t.adj).quotient
        classes = _classes(q)
        assert sorted(np.concatenate(classes).tolist()) == list(range(t.n_vertices))
        assert q.sizes.tolist() == [len(c) for c in classes] and not q.adjacent.diagonal().any()
        for c in classes:
            assert (t.adj[c] == t.adj[c[0]]).all() and not t.adj[np.ix_(c, c)].any()


def test_twin_classes_match_a_row_sort_on_all_groups_to_order_200():
    def reference(adj):  # the rows grouped by their packed bytes, the groups in byte order
        classes: dict[bytes, list[int]] = {}
        for v, row in enumerate(np.packbits(adj, axis=1)):
            classes.setdefault(row.tobytes(), []).append(v)
        return [classes[key] for key in sorted(classes)]

    for _, _, _, g in groups.enumerate_groups(200, groups.FAMILIES):
        for t in (build_theta(g), corrupting_builder(g)):
            got = _classes(from_adjacency(t.group, t.adj).quotient)
            assert [c.tolist() for c in got] == reference(t.adj), t.group.describe()


def test_min_cut_on_a_small_network():
    # s=0, sink=5; the arcs 0->1, 2->3 and 2->4 (capacities 3 + 1 + 2) are the minimum cut
    arcs = [
        {1: 3, 2: 4},
        {0: 0, 3: 5},
        {0: 0, 3: 1, 4: 2},
        {1: 0, 2: 0, 5: 9},
        {2: 0, 5: 4},
        {3: 0, 4: 0},
    ]
    before = [dict(a) for a in arcs]
    flow, reached = _min_cut(arcs, 0, 5)
    assert flow == 6
    assert reached == {0, 2}
    assert sum(c for u in reached for v, c in arcs[u].items() if v not in reached) == flow
    assert arcs == before


# ---------------------------------------------------------------------------
# open problem classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g, expected",
    [
        (cyclic(12), "kappa_equals_S"),
        (dicyclic(3), "kappa_exceeds_S"),
        (cyclic(7), "complete"),
    ],
)
def test_open_problem_classify(g, expected):
    assert open_problem_classify(build_theta(g)) == expected


def test_kappa_exceeds_S_exactly_when_the_composite_order_graph_is_connected():
    # kappa = |S| + kappa(H) with H = Θ(G) - S(G), the graph on the composite-order elements
    counts = {"exceeds": 0, "sized": 0}
    for _, _, _, g in groups.enumerate_groups(200, groups.FAMILIES):
        t = build_theta(g)
        s = prime_order_set(t)
        h = _nx_graph(t).subgraph(set(range(t.n_vertices)) - s)
        label = open_problem_classify(t)
        incomplete = h.number_of_nodes() > 0
        assert (label == "complete") == (not incomplete), g.describe()
        assert (label == "kappa_exceeds_S") == (incomplete and nx.is_connected(h)), g.describe()
        counts["exceeds"] += label == "kappa_exceeds_S"
        if incomplete and h.number_of_nodes() <= 40:
            assert vertex_connectivity(t).kappa == len(s) + nx.node_connectivity(h), g.describe()
            counts["sized"] += 1
    assert counts["exceeds"] > 0 and counts["sized"] > 50, counts


def test_cross_check_error_on_corrupted_graph():
    from thetagraph.verify import corrupting_builder

    t = corrupting_builder(cyclic(7))  # complete graph loses one edge
    for _ in range(2):  # a call that raises stores no fact, so it raises again
        with pytest.raises(CrossCheckError):
            is_complete(t)


# ---------------------------------------------------------------------------
# each graph fact computed once per graph
# ---------------------------------------------------------------------------


def test_analyze_computes_twin_classes_and_connectivity_once(monkeypatch):
    # the twin classes are the group's quotient, made once per group; H = Θ(G) - S(G) is
    # disconnected for dihedral(60), so no flow runs, and kappa's flows run once per report
    made, flows = [], []
    quotient, min_cut = groups.TwinQuotient, thetagraph.properties._min_cut
    monkeypatch.setattr(groups, "TwinQuotient", lambda *a: made.append(a) or quotient(*a))
    monkeypatch.setattr(thetagraph.properties, "_min_cut", lambda *a: flows.append(a) or min_cut(*a))
    for ctor, n in ((dihedral, 60), (dicyclic, 15)):
        vertex_connectivity(build_theta(ctor(n)))  # on a spec of its own
        alone = len(flows)
        made.clear()
        flows.clear()
        analyze_group(ctor(n), timestamp=False)
        assert len(made) == 1 and len(flows) == alone, ctor(n).describe()
        assert (alone == 0) == (ctor is dihedral), ctor(n).describe()
        flows.clear()


def test_analyze_checks_each_certificate_once(monkeypatch):
    # the cycle and the cut are validated where they are made, not again by the report
    calls = {"validate_cycle": 0, "components_after_removal": 0}
    for name in calls:
        def counting(*args, fn=getattr(thetagraph.properties, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(thetagraph.properties, name, counting)
    report = analyze_group(dihedral(60), timestamp=False)["properties"]
    assert report["hamiltonian"]["cycle"] and report["vertex_connectivity"]["witness_cut"]
    assert calls == {"validate_cycle": 1, "components_after_removal": 1}


def test_facts_are_not_shared_between_graphs_of_one_group():
    g = cyclic(7)
    built, corrupted = build_theta(g), corrupting_builder(g)
    assert vertex_connectivity(built).kappa == 6
    assert vertex_connectivity(corrupted).kappa == 5


def test_graph_arrays_are_read_only_even_when_passed_writable():
    t = _theta_from_nx(nx.cycle_graph(5))
    assert not t.adj.flags.writeable and not t.degrees.flags.writeable
    with pytest.raises(ValueError):
        t.adj[0, 2] = True


@pytest.mark.parametrize("name", ["is_connected", "is_complete", "vertex_connectivity"])
def test_memoised_predicates_stay_visible_to_the_layer_tracer(name):
    # perfbench/tracing.py wraps the public functions that pass these tests
    fn = getattr(thetagraph.properties, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == "thetagraph.properties"
    assert fn.__name__ == name
