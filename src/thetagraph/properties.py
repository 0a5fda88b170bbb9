"""Exact structural decisions for prime coprime graphs.

Most predicates are decided twice: once from the graph (degrees, flow,
search) and once from the group's order profile via the matching
characterization. The two routes are cross-asserted; a disagreement raises
CrossCheckError, which always signals an implementation bug rather than bad
input. Connectedness, diameter and girth are read off the universal
vertices, which the identity guarantees; a graph with none raises
CrossCheckError too.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import ThetaGraph, prime_order_set

__all__ = [
    "ConnectivityResult",
    "CrossCheckError",
    "HamiltonianVerdict",
    "components_after_removal",
    "diameter",
    "domination_number",
    "girth",
    "is_complete",
    "is_connected",
    "is_eulerian",
    "is_hamiltonian",
    "is_planar",
    "is_singleton_dominating",
    "open_problem_classify",
    "planarity_decision",
    "validate_cycle",
    "vertex_connectivity",
]

DEFAULT_NODE_BUDGET = 10_000_000


class CrossCheckError(RuntimeError):
    """A graph computation disagreed with its group-theoretic criterion.

    On constructor-built groups this always signals an implementation bug.
    On a user-supplied order list it can instead mean the list is not the
    order profile of any finite group (the theorems presuppose one); the
    message says so in that case.
    """


def _agree(
    t: ThetaGraph, what: str, graph_side: bool, group_side: bool, vertex: int | None = None
) -> bool:
    """The graph side of a criterion, once the group side agrees with it.
    A criterion of one vertex names the vertex instead of the two sides."""
    if graph_side == group_side:
        return graph_side
    detail = f"{what} criteria disagree on {t.group.describe()}" + (
        f": graph={graph_side} group={group_side}" if vertex is None else f" at vertex {vertex}"
    )
    if "custom(" in t.group.describe():  # a custom order list, alone or as a product factor
        detail += "; the supplied order list is likely not the order profile of any finite group"
    raise CrossCheckError(detail)


def _once_per_graph(fn):
    """Memoise fn(t) in t.facts under fn's name; a call that raises stores nothing."""

    @functools.wraps(fn)
    def once(t: ThetaGraph):
        if fn.__name__ not in t.facts:
            t.facts[fn.__name__] = fn(t)
        return t.facts[fn.__name__]

    return once


# ---------------------------------------------------------------------------
# connectivity, distance, girth
# ---------------------------------------------------------------------------


def _universal(t: ThetaGraph) -> np.ndarray:
    """The universal vertices (degree n - 1). In Θ(G) the identity is one,
    as gcd(1, m) = 1; a graph with none contradicts the group side."""
    universal = np.flatnonzero(t.degrees == t.n_vertices - 1)
    if not universal.size:
        raise CrossCheckError(
            f"no universal vertex in the graph of {t.group.describe()}; the identity should be universal"
        )
    return universal


def is_connected(t: ThetaGraph) -> bool:
    """True: a universal vertex, such as the identity, joins every pair."""
    _universal(t)
    return True


def diameter(t: ThetaGraph) -> int:
    """0 on one vertex, 1 on a complete graph, and otherwise 2, as a
    universal vertex is a common neighbour of every non-adjacent pair."""
    _universal(t)
    if t.n_vertices == 1:
        return 0
    return 1 if _complete_graph_side(t) else 2


def girth(t: ThetaGraph):
    """Length of a shortest cycle: math.inf on a star, otherwise 3.

    A universal vertex has n - 1 edges; any other edge avoids it and closes
    a triangle with it. A graph with no other edge is a star, a tree.
    """
    _universal(t)
    return math.inf if t.edge_count == t.n_vertices - 1 else 3


def components_after_removal(t: ThetaGraph, removed) -> int:
    """Connected components of the subgraph induced on V minus removed,
    counted over the twin classes: one per connected set of the classes left,
    plus r - 1 more for an independent class left with r vertices and no
    neighbouring class left, as its vertices fall apart."""
    n, q = t.n_vertices, t.quotient
    removed = np.fromiter(removed, dtype=np.int64)
    bad = removed[(removed < 0) | (removed >= n)]
    if bad.size:
        raise IndexError(f"vertex index out of range: {bad[0]}")
    left = q.sizes - np.bincount(q.class_of[np.unique(removed)], minlength=len(q.sizes))
    unseen = left > 0
    joined = q.adjacent & unseen & unseen[:, None] & ~np.eye(len(left), dtype=bool)
    count = int((left - 1)[unseen & ~joined.any(axis=1) & ~q.adjacent.diagonal()].sum())
    while unseen.any():
        count += 1
        reached = frontier = np.arange(len(left)) == np.argmax(unseen)
        while frontier.any():  # one numpy step per BFS level over the classes
            frontier = joined[frontier].any(axis=0) & ~reached
            reached = reached | frontier
        unseen &= ~reached
    return count


# ---------------------------------------------------------------------------
# dual-criterion predicates
# ---------------------------------------------------------------------------


def is_eulerian(t: ThetaGraph) -> bool:
    """Eulerian iff connected with all degrees even iff (group side)
    |G| is odd and every non-identity element has prime order.

    The identity is the only element of order 1, so the group side is: |G|
    odd and every order class of order 1 or a prime."""
    graph_side = is_connected(t) and bool((t.degrees % 2 == 0).all())
    group_side = t.group.size % 2 == 1 and bool(t.group.order_classes.one_or_prime.all())
    return _agree(t, "eulerian", graph_side, group_side)


def _complete_graph_side(t: ThetaGraph) -> bool:
    n = t.n_vertices
    return t.edge_count == n * (n - 1) // 2


@_once_per_graph
def is_complete(t: ThetaGraph) -> bool:
    """Complete iff the group has no element of composite order."""
    graph_side = _complete_graph_side(t)
    group_side = bool(t.group.order_classes.one_or_prime.all())
    return _agree(t, "completeness", graph_side, group_side)


def is_singleton_dominating(t: ThetaGraph, v: int) -> bool:
    """{v} dominates iff o(v) is 1 or prime iff v is adjacent to all others."""
    if not 0 <= v < t.n_vertices:
        raise IndexError(f"vertex index out of range: {v}")
    oc = t.group.order_classes
    group_side = bool(oc.one_or_prime[oc.class_of[v]])
    graph_side = int(t.degrees[v]) == t.n_vertices - 1
    return _agree(t, "domination", graph_side, group_side, vertex=v)


def domination_number(t: ThetaGraph) -> tuple[int, frozenset[int]]:
    """Always 1, witnessed by the identity (a universal vertex)."""
    e = t.group.identity_index
    is_singleton_dominating(t, e)  # the identity's group side is True, so this is True or raises
    return 1, frozenset({e})


# ---------------------------------------------------------------------------
# planarity
# ---------------------------------------------------------------------------


def _planar_graph_side(t: ThetaGraph) -> tuple[bool, str]:
    """Planarity read off the graph alone, with the method that decided it.

    Dense graphs are rejected by the edge bound |E| > 3|V| - 6, and every
    graph on at most 4 vertices is planar. Otherwise the universal vertices
    U (degree n - 1) decide:

    - |U| >= 4 on n >= 5 vertices gives at least 4n - 10 > 3n - 6 edges, so
      past the edge bound |U| <= 3.
    - |U| = 3 gives at least 3n - 6 edges, so G - U has none: G is K_3
      joined to n - 3 independent vertices, which contains K_{3,3} once
      n >= 6 and is K_5 minus an edge, a planar graph, at n = 5.
    - |U| = 2 makes G = K_2 + H with H = G - U, planar iff H is a linear
      forest (every degree at most 2 and no cycle): a vertex of degree 3 in
      H gives K_{3,3}, a cycle in H gives K_5 (triangle) or K_{3,3}, and K_2
      joined to paths is drawn with one universal vertex on each side.

    Only |U| <= 1 on five or more vertices goes to the left-right planarity
    test of networkx, imported there and nowhere else.
    """
    n, m = t.n_vertices, t.edge_count
    if n >= 3 and m > 3 * n - 6:
        return False, "euler_bound"
    if n <= 4:
        return True, "small_graph"
    universal = np.flatnonzero(t.degrees == n - 1)
    u = len(universal)
    if u >= 3:
        return n == 5, "universal_vertices"
    if u == 2:
        h_degrees = t.degrees[t.degrees < n - 1] - 2  # each vertex of H loses its edges to U
        forest_edges = n - 2 - components_after_removal(t, universal)
        linear = bool((h_degrees <= 2).all()) and int(h_degrees.sum()) // 2 == forest_edges
        return linear, "universal_vertices"
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(t.edges())
    ok, _ = nx.check_planarity(g, counterexample=False)
    return bool(ok), "left_right"


def planarity_decision(t: ThetaGraph) -> tuple[bool, str]:
    """Exact planarity plus the method that decided it (see _planar_graph_side),
    cross-checked against the group side: Θ(G) is planar iff |G| <= 4 or
    |S(G)| = 2.

    Proof of the group side for |G| >= 5. The members of S(G) are universal
    vertices, so |S| >= 4 gives K_5: four of them and any fifth vertex. By
    Cauchy's theorem every prime p dividing |G| adds at least p - 1 elements
    of order p to S(G), and a group of even order has an odd number of
    involutions. So |S| = 3 means |G| odd with exactly two elements of order
    3: a 3-group with a unique subgroup of order 3, which is cyclic, and
    from Z_9 on S(G) against three other vertices is a K_{3,3}. |S| = 2
    leaves a 2-group with a unique involution, which is cyclic or generalised
    quaternion (Burnside; e.g. Gorenstein, Finite Groups, Thm 5.4.10). Its
    other elements have orders 2^k with k >= 2, any two of which have a gcd
    of at least 4, so they are pairwise non-adjacent, and K_2 joined to an
    independent set is planar. |S| = 1 only in the trivial group.
    """
    graph_side, method = _planar_graph_side(t)
    group_side = t.n_vertices <= 4 or len(prime_order_set(t)) == 2
    return _agree(t, "planarity", graph_side, group_side), method


def is_planar(t: ThetaGraph) -> bool:
    return planarity_decision(t)[0]


# ---------------------------------------------------------------------------
# hamiltonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianVerdict:
    status: str  # yes | no | inconclusive
    cycle: tuple[int, ...] | None
    method: str  # exact_search | ore_sufficient | toughness_refuted
    nodes_explored: int
    witness_cut: frozenset[int] | None = None


def _gaps(t: ThetaGraph, cycle: np.ndarray) -> np.ndarray:
    """The places k where the hop from cycle[k] to the next vertex, cyclically, is not an edge."""
    return np.flatnonzero(~t.adj[cycle, np.roll(cycle, -1)])


def validate_cycle(t: ThetaGraph, cycle) -> bool:
    """A Hamiltonian cycle visits every vertex once with all hops adjacent.
    Its vertices are ints, Python or numpy: a bool or an integral float
    compares equal to one but is not a vertex."""
    n = t.n_vertices
    if cycle is None or n < 3:
        return False
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in cycle):
        return False
    return sorted(cycle) == list(range(n)) and not _gaps(t, np.asarray(cycle, dtype=np.int64)).size


def _ore_cycle(t: ThetaGraph) -> tuple[int, ...]:
    """Constructive cycle under Ore's condition, by Palmer's rotation
    (Comput. Math. Appl. 34, 1997).

    Start from the degree interleave (lowest and highest degree alternating),
    which in Θ(G) puts a universal vertex between composite-order vertices;
    measured, not proved, it leaves no gap on the built-in Ore groups of
    order <= 1000. Remove each gap, a hop that is not an edge: roll the
    cycle into a path x_0..x_{n-1} whose ends are the gap's ends, take the
    first j with x_0 ~ x_{j+1} and x_{n-1} ~ x_j, and reverse x_{j+1}..x_{n-1}.
    The new hops are edges, so from any start there are at most n steps.
    Such a j exists: x_0 has deg(x_0) neighbours x_{j+1} and x_{n-1} has
    deg(x_{n-1}) neighbours x_j, j in 0..n-2 each, and the degree-sum bound
    makes these n or more choices of j among n - 1 values.
    """
    n = t.n_vertices
    order = np.argsort(t.degrees, kind="stable")
    cycle = np.column_stack([order, order[::-1]]).ravel()[:n]  # order[0], order[-1], order[1], ...
    while (gaps := _gaps(t, cycle)).size:
        path = np.roll(cycle, -int(gaps[0]) - 1)
        crossing = np.flatnonzero(t.adj[path[0], path[2:]] & t.adj[path[-1], path[1:-1]])
        if not crossing.size:
            raise CrossCheckError("Ore rewiring failed; degree-sum bound violated")
        j = int(crossing[0]) + 1
        cycle = np.concatenate([path[: j + 1], path[j + 1 :][::-1]])
    cycle = tuple(cycle.tolist())
    if not validate_cycle(t, cycle):
        raise CrossCheckError("Ore construction produced an invalid cycle")
    return cycle


def _toughness_refutation(t: ThetaGraph) -> tuple[frozenset[int], int] | None:
    """Try the 1-toughness splits suggested by the order profile.

    Candidates: the complement of each composite-order class, ascending by
    order (elements of one composite order are pairwise non-adjacent), and
    the prime-order set S(G). If removing a candidate leaves more components
    than vertices removed, the graph is not 1-tough, hence not Hamiltonian.
    """
    n = t.n_vertices
    oc = t.group.order_classes
    candidates = [
        frozenset(np.flatnonzero(oc.class_of != c).tolist()) for c in np.flatnonzero(~oc.one_or_prime)
    ]
    candidates.append(prime_order_set(t))
    for cut in candidates:
        if not cut or len(cut) >= n:
            continue
        comps = components_after_removal(t, cut)
        if comps > len(cut):
            return cut, comps
    return None


def _hamiltonian_search(t: ThetaGraph, node_budget: int) -> tuple[str, tuple[int, ...] | None, int]:
    """Exact backtracking over vertices in ascending-degree order.

    Depth-first with an explicit stack, so the depth is not bounded by the
    interpreter's recursion limit. Each vertex placed on the path counts as
    one explored node.
    """
    n = t.n_vertices
    order = sorted(range(n), key=lambda v: (int(t.degrees[v]), v))
    start = order[0]
    rank = {v: k for k, v in enumerate(order)}
    nbrs = [sorted((int(w) for w in t.neighbors(v)), key=lambda w: rank[w]) for v in range(n)]
    used = [False] * n
    path: list[int] = []
    untried: list = []  # untried[d]: iterator over the neighbours of path[d] not yet tried
    nodes = 0
    w = start
    while True:
        nodes += 1
        if nodes > node_budget:
            return "inconclusive", None, nodes
        used[w] = True
        path.append(w)
        if len(path) == n and t.adj[w, start]:
            return "yes", tuple(path), nodes
        untried.append(iter(nbrs[w]))
        # step to the next unused neighbour, backtracking from exhausted vertices
        while untried:
            for w in untried[-1]:
                if not used[w]:
                    break
            else:
                untried.pop()
                used[path.pop()] = False
                continue
            break
        else:
            return "no", None, nodes


def is_hamiltonian(t: ThetaGraph, node_budget: int = DEFAULT_NODE_BUDGET) -> HamiltonianVerdict:
    """Decide Hamiltonicity: Ore bound, then 1-toughness refutation, then
    budgeted exact search. A yes always carries a certificate cycle and a
    toughness-based no carries the separating set. Ore's bound is read on
    the rows of degree below n/2 only: d_u + d_v < n needs one of them."""
    n = t.n_vertices
    if n < 3:
        return HamiltonianVerdict("no", None, "exact_search", 0)
    low = np.flatnonzero(2 * t.degrees < n)
    # the bounds as a column, not an n x n int64; a row's own vertex is no pair
    short = ~t.adj[low] & (t.degrees < n - t.degrees[low, None]) & (np.arange(n) != low[:, None])
    if not short.any():
        return HamiltonianVerdict("yes", _ore_cycle(t), "ore_sufficient", 0)
    refutation = _toughness_refutation(t)
    if refutation is not None:
        cut, _ = refutation
        return HamiltonianVerdict("no", None, "toughness_refuted", 0, witness_cut=cut)
    status, cycle, nodes = _hamiltonian_search(t, node_budget)
    if status == "yes" and not validate_cycle(t, cycle):
        raise CrossCheckError("search produced an invalid Hamiltonian cycle")
    return HamiltonianVerdict(status, cycle, "exact_search", nodes)


# ---------------------------------------------------------------------------
# vertex connectivity (|U| + kappa(G - U), the latter by class-weighted max-flow)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectivityResult:
    kappa: int
    witness_cut: frozenset[int] | None  # absent for complete graphs
    method: str  # complete_rule | max_flow


def _min_cut(arcs: list[dict[int, int]], s: int, sink: int) -> tuple[int, set[int]]:
    """Edmonds-Karp max-flow from s to sink over the residual capacities
    arcs[u][v], worked on a copy so arcs is left as it was.

    Returns the flow value and the nodes reached from s in the final residual
    graph; the arcs leaving them form a minimum cut."""
    res = [dict(a) for a in arcs]
    flow = 0
    while True:
        pred = {s: s}  # BFS tree of the residual graph, ended once the sink is reached
        q = deque([s])
        while q and sink not in pred:
            u = q.popleft()
            for v, c in res[u].items():
                if c > 0 and v not in pred:
                    pred[v] = u
                    q.append(v)
        if sink not in pred:
            return flow, set(pred)
        path = [sink]
        while path[-1] != s:
            path.append(pred[path[-1]])
        hops = list(zip(path[1:], path))
        bottleneck = min(res[u][v] for u, v in hops)
        for u, v in hops:
            res[u][v] -= bottleneck
            res[v][u] += bottleneck
        flow += bottleneck


@_once_per_graph
def vertex_connectivity(t: ThetaGraph) -> ConnectivityResult:
    """kappa(G) = |U| + kappa(H), with U the universal vertices and H = G - U.

    A universal vertex left behind keeps the rest connected, so on a
    non-complete graph a set separates G iff it holds U and the rest of it
    separates H. When H is disconnected (also when G is, as U is then empty)
    U alone is a minimum cut and no flow runs. Otherwise kappa(H) is taken
    on H's twin classes, read off the quotient, which a minimum separator
    never splits: each of its vertices has neighbours in two components
    left, and a twin left outside it would have them too and join the two.
    So kappa(G) is the smaller of

    - the degree of an independent class C of size >= 2, whose
      neighbourhood N(C), U included, cuts the members of C apart; and
    - |U| plus a class-weighted max-flow over the standard reduced pair set
      (Esfahanian-Hakimi), taken on H's classes: a minimum-degree class
      against each class not adjacent to it, plus each non-adjacent pair of
      its neighbour classes.

    The members of a clique class are adjacent, so no pair of them needs a
    cut. The cut is re-validated on the full graph. U, completeness and the
    classes are read off the graph, so this stays a pure graph computation
    even on order lists that are not groups."""
    n, q = t.n_vertices, t.quotient
    if _complete_graph_side(t):
        return ConnectivityResult(n - 1, None, "complete_rule")
    universal = np.flatnonzero(t.degrees == n - 1)
    if components_after_removal(t, universal) >= 2:
        return ConnectivityResult(len(universal), frozenset(universal.tolist()), "max_flow")
    classes = np.flatnonzero(q.degrees < n - 1)  # H's classes, ascending
    q_adj = q.adjacent[np.ix_(classes, classes)]
    best, best_cut = n, frozenset()  # every candidate below is smaller than n
    for c in classes.tolist():
        if q.sizes[c] > 1 and not q.adjacent[c, c] and q.degrees[c] < best:
            best, best_cut = int(q.degrees[c]), frozenset(np.flatnonzero(q.adjacent[c][q.class_of]).tolist())
    s = int(np.argmin(q.degrees[classes]))
    # the vertex-split digraph of the classes: x_in = 2x, x_out = 2x+1. The split
    # arc of class x carries its size; connection arcs carry n + 1, so a minimum
    # cut consists of split arcs only and its value is the size of the classes it removes
    arcs: list[dict[int, int]] = [{} for _ in range(2 * len(classes))]

    def add(u: int, v: int, c: int) -> None:
        arcs[u][v], arcs[v][u] = c, 0

    for x, size in enumerate(q.sizes[classes].tolist()):
        add(2 * x, 2 * x + 1, size)
    for a, b in zip(*(ij.tolist() for ij in np.nonzero(np.triu(q_adj, k=1)))):
        add(2 * a + 1, 2 * b, n + 1)
        add(2 * b + 1, 2 * a, n + 1)
    pairs = [(s, c) for c in range(len(classes)) if c != s and not q_adj[s, c]]
    ns = np.flatnonzero(q_adj[s]).tolist()
    pairs.extend((a, b) for a, b in combinations(ns, 2) if not q_adj[a, b])
    for a, b in pairs:  # weighted kappa_H(a, b) of each non-adjacent pair
        value, reached = _min_cut(arcs, 2 * a + 1, 2 * b)
        if len(universal) + value < best:
            best = len(universal) + value
            split = [c for x, c in enumerate(classes.tolist()) if 2 * x in reached and 2 * x + 1 not in reached]
            best_cut = frozenset(np.concatenate([universal, np.flatnonzero(np.isin(q.class_of, split))]).tolist())
    if best > int(t.degrees.min()):
        raise CrossCheckError("kappa exceeds the minimum degree")
    if len(best_cut) != best or components_after_removal(t, best_cut) < 2:
        raise CrossCheckError("minimum cut witness failed re-validation")
    return ConnectivityResult(best, best_cut, "max_flow")


def open_problem_classify(t: ThetaGraph) -> str:
    """Compare kappa with |S(G)|: complete | kappa_equals_S | kappa_exceeds_S.

    kappa < |S(G)| cannot happen: every member of S(G) is a universal
    vertex, so any vertex set smaller than S(G) leaves one behind and the
    remaining graph stays connected. Seeing it means a bug.
    """
    if is_complete(t):
        return "complete"
    kappa = vertex_connectivity(t).kappa
    s_size = len(prime_order_set(t))
    if kappa < s_size:
        raise CrossCheckError(
            f"kappa={kappa} < |S|={s_size} on {t.group.describe()}; "
            "impossible since S(G) consists of universal vertices"
        )
    return "kappa_equals_S" if kappa == s_size else "kappa_exceeds_S"
