"""Exact structural decisions for prime coprime graphs.

Most predicates are decided twice: once from the graph's twin quotient
(class degrees, flow, search; never the n x n view) and once from the
group's order profile via the matching characterization. The two routes are
cross-asserted; a disagreement raises CrossCheckError, which always signals
an implementation bug rather than bad input. Connectedness, diameter and
girth are read off the universal vertices, which the identity guarantees; a
graph with none raises CrossCheckError too, as does planarity on n >= 5 with one.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .graph import ThetaGraph, prime_order_count
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
    if graph_side != group_side:
        raise _contradiction(t, f"{what} criteria disagree on {t.group.describe()}" + (
            f": graph={graph_side} group={group_side}" if vertex is None else f" at vertex {vertex}"))
    return graph_side


def _contradiction(t: ThetaGraph, detail: str) -> CrossCheckError:
    """The error for a graph that contradicts its group side, with a hint on a custom order list."""
    if "custom(" in t.group.describe():
        detail += "; the supplied order list is likely not the order profile of any finite group"
    return CrossCheckError(detail)


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
    if t.n_vertices - 1 not in t.quotient.degree_list:
        raise _contradiction(
            t, f"no universal vertex in the graph of {t.group.describe()}; the identity should be universal"
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
    left = (q.sizes - np.bincount(q.class_of[np.unique(removed)], minlength=len(q.sizes))).tolist()
    return _components_left(q, {c: r for c, r in enumerate(left) if r})


def _bits(b: int) -> Iterator[int]:
    """The set bits of b >= 0, ascending."""
    while b:
        yield (b & -b).bit_length() - 1
        b &= b - 1


def _bitset(classes) -> int:
    """The classes given, as the set bits of one int."""
    return sum(1 << c for c in classes)


def _components_left(q: TwinQuotient, left: dict[int, int]) -> int:
    """Connected components of the blow-up of q with left[c] > 0 vertices kept in class c,
    searched on those classes alone, a row of neighbour classes at a time."""
    rows, kept = q.rows, _bitset(left)
    count = sum(r - 1 for c, r in left.items() if not rows[c] & kept and not q.cliques >> c & 1)
    unseen = kept
    while unseen:
        count += 1
        stack = [(unseen & -unseen).bit_length() - 1]  # the first class not reached
        unseen &= unseen - 1
        while stack:
            found = rows[stack.pop()] & unseen
            unseen ^= found
            stack.extend(_bits(found))
    return count


def _h_classes(t: ThetaGraph) -> dict[int, int]:
    """The classes of H = G - U, off the universal vertices, ascending, with their sizes."""
    q, top = t.quotient, t.n_vertices - 1
    return {c: size for c, (size, d) in enumerate(zip(q.size_list, q.degree_list)) if d < top}


# ---------------------------------------------------------------------------
# dual-criterion predicates
# ---------------------------------------------------------------------------


def is_eulerian(t: ThetaGraph) -> bool:
    """Eulerian iff connected with all degrees even iff (group side)
    |G| is odd and every non-identity element has prime order.

    The identity is the only element of order 1, so the group side is: |G|
    odd and every order class of order 1 or a prime."""
    graph_side = is_connected(t) and all(d % 2 == 0 for d in t.quotient.degree_list)
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
    """{v} dominates iff o(v) is 1 or prime iff v is adjacent to all others.
    The identity is the one element of order class 0 (order 1), which on the
    group's own graph is also its twin class, so its classes are known with
    no element read."""
    if not 0 <= v < t.n_vertices:
        raise IndexError(f"vertex index out of range: {v}")
    g, q = t.group, t.quotient
    identity = v == g.identity_index
    order_class = 0 if identity else int(g.order_classes.class_of[v])
    twin_class = 0 if identity and q is g.order_classes.quotient else int(q.class_of[v])
    group_side = bool(g.order_classes.one_or_prime[order_class])
    graph_side = q.degree_list[twin_class] == t.n_vertices - 1
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

    |U| <= 1 on n >= 5 raises CrossCheckError: in Θ(G), the identity and, by
    Cauchy, an element of prime order p are universal, as gcd(1, m) = 1 and gcd(p, m) | p.
    """
    n, m, q = t.n_vertices, t.edge_count, t.quotient
    if n >= 3 and m > 3 * n - 6:
        return False, "euler_bound"
    if n <= 4:
        return True, "small_graph"
    h = _h_classes(t)
    u = n - sum(h.values())
    if u >= 3:
        return n == 5, "universal_vertices"
    if u == 2:
        h_edges = m - (2 * n - 3)  # not in H: the edge inside U and two edges to U at each vertex of H
        linear = all(q.degree_list[c] - 2 <= 2 for c in h) and h_edges == n - 2 - _components_left(q, h)
        return linear, "universal_vertices"
    raise _contradiction(t, f"at most one universal vertex on {n} vertices in the graph of {t.group.describe()}; "
                         "the identity and an element of prime order should be universal")


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
    group_side = t.n_vertices <= 4 or prime_order_count(t) == 2
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
    makes these n or more choices of j among n - 1 values. ``is_hamiltonian``
    checks that bound exactly before it calls this, so a rotation can be stuck
    only on a graph that fails it; the cycle then keeps its gap and fails the
    one validation below.
    """
    n, q = t.n_vertices, t.quotient
    order = np.argsort(t.degrees, kind="stable")
    cycle = np.column_stack([order, order[::-1]]).ravel()[:n]  # order[0], order[-1], order[1], ...
    while (gaps := _gaps(t, cycle)).size:
        path = np.roll(cycle, -int(gaps[0]) - 1)
        c = q.class_of[path]
        crossing = np.flatnonzero(q.adjacent[c[0], c[2:]] & q.adjacent[c[-1], c[1:-1]])
        if not crossing.size:  # no rotation removes this gap: Ore's bound fails here
            break
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
    A candidate is tested as the vertices it keeps in each twin class, read
    once off the overlap of the order and twin classes (on a group's own graph
    the two are one), so only a winning cut is listed.
    """
    n, q, oc = t.n_vertices, t.quotient, t.group.order_classes
    k = len(q.size_list)
    overlap, counts = np.unique(oc.class_of * k + q.class_of, return_counts=True)
    within: list[dict[int, int]] = [{} for _ in oc.orders]
    for o, r in zip(overlap.tolist(), counts.tolist()):
        within[o // k][o % k] = r
    composite = [c for c, small in enumerate(oc.one_or_prime.tolist()) if not small]
    off_s = Counter()  # what the last candidate keeps: every composite-order vertex
    for c in composite:
        off_s.update(within[c])
    for c, keep in chain(((c, within[c]) for c in composite), [(None, off_s)]):
        removed = n - sum(keep.values())
        if not 0 < removed < n:
            continue
        comps = _components_left(q, keep)
        if comps > removed:
            cut = oc.class_of != c if c is not None else oc.one_or_prime[oc.class_of]
            return frozenset(np.flatnonzero(cut).tolist()), comps
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
    toughness-based no carries the separating set. Ore's bound fails on a short
    pair u, v: an end a of it lies in a class of degree below n/2, and the pair
    lies in one independent class of two or more, or its other end lies in a class
    not joined to a, of degree below n - deg(a). Taken from the highest such
    degree down, those classes grow as a prefix of the classes by degree, so each
    class a is tested with one AND of its row."""
    n, q = t.n_vertices, t.quotient
    if n < 3:
        return HamiltonianVerdict("no", None, "exact_search", 0)
    by_degree = sorted(range(len(q.degree_list)), key=q.degree_list.__getitem__)
    below, i = 0, 0  # the classes by_degree[:i], of degree below n - deg(a)
    for a in reversed([a for a in by_degree if 2 * q.degree_list[a] < n]):
        while i < len(by_degree) and q.degree_list[by_degree[i]] < n - q.degree_list[a]:
            below |= 1 << by_degree[i]
            i += 1
        if below & ~(q.rows[a] | 1 << a) or q.size_list[a] > 1 and not q.cliques >> a & 1:
            break  # a short pair
    else:
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
    h = _h_classes(t)  # H's classes, ascending
    degrees, rows, in_h = q.degree_list, q.rows, _bitset(h)
    universal, u_size = ((1 << len(degrees)) - 1) ^ in_h, n - sum(h.values())
    if _components_left(q, h) >= 2:
        return ConnectivityResult(u_size, _listed_cut(t, universal, u_size), "max_flow")
    best, cut = n, 0  # the best cut's classes; every candidate below is smaller than n
    for c, size in h.items():
        if size > 1 and not q.cliques >> c & 1 and degrees[c] < best:
            best, cut = degrees[c], rows[c]
    s = min(h, key=degrees.__getitem__)
    # the vertex-split digraph of the classes: c_in = 2c, c_out = 2c+1. The split
    # arc of class c carries its size; connection arcs carry n + 1, so a minimum
    # cut consists of split arcs only and its value is the size of the classes it removes
    arcs: list[dict[int, int]] = [{} for _ in range(2 * len(degrees))]

    def add(u: int, v: int, c: int) -> None:
        arcs[u][v], arcs[v][u] = c, 0

    for c, size in h.items():
        add(2 * c, 2 * c + 1, size)
    for a in h:
        for b in _bits(rows[a] & in_h >> (a + 1) << (a + 1)):  # b > a
            add(2 * a + 1, 2 * b, n + 1)
            add(2 * b + 1, 2 * a, n + 1)
    pairs = [(s, c) for c in _bits(in_h & ~(rows[s] | 1 << s))]
    ns = list(_bits(rows[s] & in_h))
    pairs.extend((a, b) for a, b in combinations(ns, 2) if not rows[a] >> b & 1)
    for a, b in pairs:  # weighted kappa_H(a, b) of each non-adjacent pair
        value, reached = _min_cut(arcs, 2 * a + 1, 2 * b)
        if u_size + value < best:
            best = u_size + value
            cut = universal | _bitset(c for c in h if 2 * c in reached and 2 * c + 1 not in reached)
    if best > min(degrees):
        raise CrossCheckError("kappa exceeds the minimum degree")
    return ConnectivityResult(best, _listed_cut(t, cut, best), "max_flow")


def _listed_cut(t: ThetaGraph, classes: int, size: int) -> frozenset[int]:
    """The vertices of the classes set in ``classes``, re-validated on the full graph as a cut of size vertices."""
    k = len(t.quotient.size_list)
    marked = np.unpackbits(np.frombuffer(classes.to_bytes(k // 8 + 1, "little"), np.uint8), count=k, bitorder="little")
    cut = frozenset(np.flatnonzero(marked[t.quotient.class_of]).tolist())
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
    s_size = prime_order_count(t)
    if kappa < s_size:
        raise CrossCheckError(
            f"kappa={kappa} < |S|={s_size} on {t.group.describe()}; "
            "impossible since S(G) consists of universal vertices"
        )
    return "kappa_equals_S" if kappa == s_size else "kappa_exceeds_S"
