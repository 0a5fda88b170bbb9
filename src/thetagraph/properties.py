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
from itertools import chain, combinations

import numpy as np

from .graph import ThetaGraph, prime_order_set
from .groups import TwinQuotient

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


def _universal(t: ThetaGraph) -> None:
    """Check for a universal vertex (degree n - 1) on the class degrees. In Θ(G)
    the identity is one, as gcd(1, m) = 1; a graph with none contradicts the group side."""
    if not (t.quotient.degrees == t.n_vertices - 1).any():
        raise CrossCheckError(
            f"no universal vertex in the graph of {t.group.describe()}; the identity should be universal"
        )


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
    return _components_left(q, q.sizes - np.bincount(q.class_of[np.unique(removed)], minlength=len(q.sizes)))


def _components_left(q: TwinQuotient, left: np.ndarray) -> int:
    """Connected components of the blow-up of q with left[c] vertices kept in class c, searched on those classes."""
    kept = np.flatnonzero(left)
    joined = q.adjacent[np.ix_(kept, kept)] & ~np.eye(len(kept), dtype=bool)
    count = int((left[kept] - 1)[~joined.any(axis=1) & ~q.adjacent[kept, kept]].sum())
    reached = np.zeros(len(kept), dtype=bool)
    while not reached.all():
        count += 1
        frontier = np.arange(len(kept)) == np.argmin(reached)  # the first class not reached
        while frontier.any():  # one numpy step per BFS level over the classes
            reached |= frontier
            frontier = joined[frontier].any(axis=0) & ~reached
    return count


# ---------------------------------------------------------------------------
# dual-criterion predicates
# ---------------------------------------------------------------------------


def is_eulerian(t: ThetaGraph) -> bool:
    """Eulerian iff connected with all degrees even iff (group side)
    |G| is odd and every non-identity element has prime order.

    The identity is the only element of order 1, so the group side is: |G|
    odd and every order class of order 1 or a prime."""
    graph_side = is_connected(t) and bool((t.quotient.degrees % 2 == 0).all())
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
    n, m, q = t.n_vertices, t.edge_count, t.quotient
    if n >= 3 and m > 3 * n - 6:
        return False, "euler_bound"
    if n <= 4:
        return True, "small_graph"
    in_h = q.degrees < n - 1
    u = n - int(q.sizes[in_h].sum())
    if u >= 3:
        return n == 5, "universal_vertices"
    if u == 2:
        h_edges = m - (2 * n - 3)  # not in H: the edge inside U and two edges to U at each vertex of H
        linear = bool((q.degrees[in_h] - 2 <= 2).all()) and h_edges == n - 2 - _components_left(q, q.sizes * in_h)
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
    """The places k where the hop from cycle[k] to the next vertex, cyclically, is not an edge.
    The vertices are distinct, so each hop's edge is read off the classes."""
    c = t.quotient.class_of[cycle]
    return np.flatnonzero(~t.quotient.adjacent[c, np.roll(c, -1)])


def validate_cycle(t: ThetaGraph, cycle) -> bool:
    """A Hamiltonian cycle visits every vertex once with all hops adjacent.
    Its vertices are ints, Python or numpy: a bool or an integral float
    compares equal to one but is not a vertex."""
    n = t.n_vertices
    if cycle is None or n < 3:
        return False
    if isinstance(cycle, np.ndarray) and cycle.dtype.kind in "iu":  # ints by its dtype
        listed = np.array_equal(np.sort(cycle), np.arange(n))  # False on any other shape
    else:
        ints = all(not isinstance(v, bool) and isinstance(v, (int, np.integer)) for v in cycle)
        listed = ints and sorted(cycle) == list(range(n))
    return listed and not _gaps(t, np.asarray(cycle, dtype=np.int64)).size


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
    n, q = t.n_vertices, t.quotient
    order = np.argsort(t.degrees, kind="stable")
    cycle = np.column_stack([order, order[::-1]]).ravel()[:n]  # order[0], order[-1], order[1], ...
    while (gaps := _gaps(t, cycle)).size:
        path = np.roll(cycle, -int(gaps[0]) - 1)
        c = q.class_of[path]
        crossing = np.flatnonzero(q.adjacent[c[0], c[2:]] & q.adjacent[c[-1], c[1:-1]])
        if not crossing.size:
            raise CrossCheckError("Ore rewiring failed; degree-sum bound violated")
        j = int(crossing[0]) + 1
        cycle = np.concatenate([path[: j + 1], path[j + 1 :][::-1]])
    if not validate_cycle(t, cycle):
        raise CrossCheckError("Ore construction produced an invalid cycle")
    return tuple(cycle.tolist())


def _toughness_refutation(t: ThetaGraph) -> tuple[frozenset[int], int] | None:
    """Try the 1-toughness splits suggested by the order profile.

    Candidates: the complement of each composite-order class, ascending by
    order (elements of one composite order are pairwise non-adjacent), and
    the prime-order set S(G). If removing a candidate leaves more components
    than vertices removed, the graph is not 1-tough, hence not Hamiltonian.
    A candidate is tested as the vertices it keeps, so only a winning cut is listed.
    """
    n, q, oc = t.n_vertices, t.quotient, t.group.order_classes
    kept = (oc.class_of == c for c in np.flatnonzero(~oc.one_or_prime))  # one mask at a time
    for keep in chain(kept, [~oc.one_or_prime[oc.class_of]]):
        removed = n - int(np.count_nonzero(keep))
        if not 0 < removed < n:
            continue
        comps = _components_left(q, np.bincount(q.class_of[keep], minlength=len(q.sizes)))
        if comps > removed:
            return frozenset(np.flatnonzero(~keep).tolist()), comps
    return None


def _hamiltonian_search(t: ThetaGraph, node_budget: int) -> tuple[str, tuple[int, ...] | None, int]:
    """Exact backtracking over vertices in ascending-degree order, twins sharing one
    neighbour list (a clique class's members are on theirs, skipped as used). Depth-first
    with an explicit stack, so the depth is not bounded by the interpreter's recursion
    limit. Each vertex placed on the path counts as one explored node.
    """
    n, q = t.n_vertices, t.quotient
    order = np.argsort(t.degrees, kind="stable")
    class_of = q.class_of.tolist()
    nbrs = [order[row[q.class_of[order]]].tolist() for row in q.adjacent]
    used = [False] * n
    path: list[int] = []
    untried: list = []  # untried[d]: iterator over the neighbours of path[d] not yet tried
    nodes = 0
    w = start = int(order[0])
    while True:
        nodes += 1
        if nodes > node_budget:
            return "inconclusive", None, nodes
        used[w] = True
        path.append(w)
        if len(path) == n and q.adjacent[class_of[w], class_of[start]]:
            return "yes", tuple(path), nodes
        untried.append(iter(nbrs[class_of[w]]))
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
    toughness-based no carries the separating set. Ore's bound is read on the
    classes of degree below n/2 as rows: a short pair u, v has an end there,
    and lies in two non-adjacent classes or in one independent class of two."""
    n, q = t.n_vertices, t.quotient
    if n < 3:
        return HamiltonianVerdict("no", None, "exact_search", 0)
    low = np.flatnonzero(2 * q.degrees < n)
    pair = (np.arange(len(q.sizes)) != low[:, None]) | (q.sizes[low, None] > 1)  # or two of one class
    short = ~q.adjacent[low] & (q.degrees < n - q.degrees[low, None]) & pair
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
    in_h = q.degrees < n - 1
    u_size = n - int(q.sizes[in_h].sum())
    if _components_left(q, q.sizes * in_h) >= 2:
        return ConnectivityResult(u_size, _listed_cut(t, ~in_h, u_size), "max_flow")
    classes = np.flatnonzero(in_h)  # H's classes, ascending
    q_adj = q.adjacent[np.ix_(classes, classes)]
    best, cut = n, np.zeros_like(in_h)  # the best cut's classes; every candidate below is smaller than n
    for c in classes.tolist():
        if q.sizes[c] > 1 and not q.adjacent[c, c] and q.degrees[c] < best:
            best, cut = int(q.degrees[c]), q.adjacent[c]
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
        if u_size + value < best:
            best, cut = u_size + value, ~in_h
            cut[[c for x, c in enumerate(classes.tolist()) if 2 * x in reached and 2 * x + 1 not in reached]] = True
    if best > int(q.degrees.min()):
        raise CrossCheckError("kappa exceeds the minimum degree")
    return ConnectivityResult(best, _listed_cut(t, cut, best), "max_flow")


def _listed_cut(t: ThetaGraph, classes: np.ndarray, size: int) -> frozenset[int]:
    """The vertices of the marked classes, re-validated on the full graph as a cut of size vertices."""
    cut = frozenset(np.flatnonzero(classes[t.quotient.class_of]).tolist())
    if len(cut) != size or components_after_removal(t, cut) < 2:
        raise CrossCheckError("minimum cut witness failed re-validation")
    return cut


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
