"""Finite groups reduced to labeled element-order profiles.

The coprimality graph of a group depends only on element orders, so a group
is stored as a list of (label, order) pairs plus family metadata. Full
multiplication tables are never kept here; tests rebuild them from the
defining presentations where an independent oracle is wanted.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import gcd, isqrt, lcm

import numpy as np

from .numtheory import is_one_or_prime, is_prime

__all__ = [
    "FAMILIES",
    "GroupSpec",
    "MAX_ELEMENTS",
    "OrderClasses",
    "TwinQuotient",
    "cyclic",
    "dicyclic",
    "dihedral",
    "direct_product",
    "elementary_abelian",
    "enumerate_groups",
    "from_orders",
    "group_keys",
    "heisenberg",
    "order_profile",
]

# the built-in families that ``enumerate_groups`` sweeps
FAMILIES = ("cyclic", "dihedral", "dicyclic", "elementary_abelian", "heisenberg", "product")
# the graph is built over int64 orders, and primality is exact far beyond this
MAX_ORDER = 2**63 - 1
# the dense n x n adjacency, made only where it is read, is 16 MiB at 2**12 elements, and
# the 64-bit Q of verify 128 MiB; a complete graph's export streams with about a 49 MB peak
MAX_ELEMENTS = 2**12
_GCD_BLOCK_ROWS = 256  # the k x k gcd table of the order classes is made in blocks of rows


@dataclass(frozen=True, eq=False)
class TwinQuotient:
    """A graph as the blow-up of k classes of twins, in read-only arrays: distinct u and v are
    joined iff ``adjacent[class_of[u], class_of[v]]``, so the diagonal marks the clique classes."""

    class_of: np.ndarray  # (n,) int64: the class of each vertex
    adjacent: np.ndarray  # (k, k) bool, symmetric
    sizes: np.ndarray  # (k,) int64: the number of vertices in each class
    degrees: np.ndarray = field(init=False)  # (k,) int64: the degree of each vertex of a class

    def __post_init__(self):
        object.__setattr__(self, "degrees", self.adjacent @ self.sizes - self.adjacent.diagonal())
        for a in (self.class_of, self.adjacent, self.sizes, self.degrees):
            a.setflags(write=False)

    @cached_property
    def expansion(self) -> np.ndarray:
        """(n, n) bool, read-only: the adjacency matrix, made on first use."""
        adj = self.adjacent[self.class_of][:, self.class_of]  # rows, then columns: faster than np.ix_
        np.fill_diagonal(adj, False)
        adj.setflags(write=False)
        return adj


@dataclass(frozen=True)
class OrderClasses:
    """A group's elements grouped by order; the arrays are read-only."""

    orders: np.ndarray  # (k,) int64: the distinct element orders, ascending
    class_of: np.ndarray  # (n,) the index in orders of each element's order
    one_or_prime: np.ndarray  # (k,) bool: the class order is 1 or a prime
    sizes: np.ndarray  # (k,) int64: the number of elements in each class

    @cached_property
    def adjacent(self) -> np.ndarray:
        """(k, k) bool, read-only: whether an element of class i and a
        distinct element of class j are joined, that is whether the gcd of the
        two orders is 1 or a prime. The gcd table is made in blocks of rows, so
        its temporaries stay small; primality is tested once per distinct gcd."""
        k, verdict = len(self.orders), cache(is_one_or_prime)
        edge = np.empty((k, k), dtype=bool)
        for r in range(0, k, _GCD_BLOCK_ROWS):
            block = np.gcd.outer(self.orders[r : r + _GCD_BLOCK_ROWS], self.orders)
            gcds, gcd_of = np.unique(block, return_inverse=True)
            edge[r : r + _GCD_BLOCK_ROWS] = np.array([verdict(v) for v in gcds.tolist()])[gcd_of].reshape(-1, k)
        edge.setflags(write=False)
        return edge

    @cached_property
    def quotient(self) -> TwinQuotient:
        """The graph's twin quotient: elements of one order are twins."""
        return TwinQuotient(self.class_of, self.adjacent, self.sizes)


@dataclass(frozen=True)
class GroupSpec:
    """A finite group as labeled element orders.

    Exactly one element has order 1. The identity's index and the
    ``warnings`` are derived from the orders alone, as the graph is.
    """

    family: str
    params: dict
    labels: tuple[str, ...]
    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("a group needs at least one element")
        if len(self.labels) != len(self.orders):
            raise ValueError("labels and orders must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("element labels must be unique")
        identities = self.orders.count(1)
        if identities != 1:
            raise ValueError(f"expected exactly one identity element, found {identities}")
        if any(o < 1 for o in self.orders):
            raise ValueError("element orders must be positive")
        if max(self.orders) > MAX_ORDER:
            raise ValueError(f"element orders must be at most 2**63 - 1, got {max(self.orders)}")

    @cached_property
    def identity_index(self) -> int:
        return self.orders.index(1)

    @cached_property
    def warnings(self) -> tuple[tuple[str, str], ...]:
        """Machine-readable (code, message) pairs: each element whose order
        does not divide |G| (Lagrange), in element order, then ``small_group``
        when |G| <= 2, since the graph definition assumes |G| > 2."""
        n = self.size
        warnings = tuple(
            ("lagrange_violation", f"order {o} of element {label!r} does not divide group size {n}")
            for label, o in zip(self.labels, self.orders)
            if n % o != 0
        )
        if n <= 2:
            warnings += (
                ("small_group", f"|G|={n} is at or below 2; the graph definition assumes |G|>2"),
            )
        return warnings

    @property
    def size(self) -> int:
        return len(self.orders)

    @cached_property
    def order_classes(self) -> OrderClasses:
        """The order classes, derived once per spec. Every group-side
        criterion reads them, so primality is tested once per distinct
        order, never once per element."""
        orders, class_of = np.unique(np.asarray(self.orders, dtype=np.int64), return_inverse=True)
        one_or_prime = np.array([is_one_or_prime(o) for o in orders.tolist()], dtype=bool)
        sizes = np.bincount(class_of).astype(np.int64)
        for a in (orders, class_of, one_or_prime, sizes):
            a.setflags(write=False)
        return OrderClasses(orders, class_of, one_or_prime, sizes)

    def describe(self) -> str:
        """Compact constructor-style descriptor, e.g. ``cyclic(6)``."""
        if self.family == "product":
            return f"product({self.params['left']},{self.params['right']})"
        if self.family == "custom":
            return f"custom(order={self.size})"
        args = ",".join(str(v) for v in self.params.values())
        return f"{self.family}({args})"


def _check_size(name: str, size: int) -> None:
    """Refuse a group above MAX_ELEMENTS before any element is built."""
    if size > MAX_ELEMENTS:
        raise ValueError(f"{name} would have more than MAX_ELEMENTS = {MAX_ELEMENTS} elements")


def order_profile(g: GroupSpec) -> dict[int, int]:
    """Multiset of element orders as {order: count}, ascending by order."""
    oc = g.order_classes
    return dict(zip(oc.orders.tolist(), oc.sizes.tolist()))


def cyclic(n: int) -> GroupSpec:
    """Z_n under addition; element k has order n / gcd(n, k)."""
    if n < 1:
        raise ValueError(f"cyclic requires n >= 1, got {n}")
    _check_size(f"cyclic({n})", n)
    orders = tuple(n // gcd(n, k) for k in range(n))
    labels = tuple(str(k) for k in range(n))
    return GroupSpec("cyclic", {"n": n}, labels, orders)


def _power_label(sym: str, k: int) -> str:
    if k == 0:
        return "1"
    if k == 1:
        return sym
    return f"{sym}^{k}"


def dihedral(n: int) -> GroupSpec:
    """D_n of size 2n: rotations r^i first, then the n reflections s·r^i.

    Every reflection has order 2; rotation r^i has order n / gcd(n, i).
    """
    if n < 1:
        raise ValueError(f"dihedral requires n >= 1, got {n}")
    _check_size(f"dihedral({n})", 2 * n)
    rot_orders = [n // gcd(n, i) for i in range(n)]
    rot_labels = [_power_label("r", i) for i in range(n)]
    ref_orders = [2] * n
    ref_labels = ["s" if i == 0 else f"s{_power_label('r', i)}" for i in range(n)]
    return GroupSpec(
        "dihedral",
        {"n": n},
        tuple(rot_labels + ref_labels),
        tuple(rot_orders + ref_orders),
    )


def dicyclic(n: int) -> GroupSpec:
    """Dic_n of size 4n: powers a^k first, then the 2n elements x·a^k.

    From the relations a^(2n) = 1, x^2 = a^n, a·x = x·a^(-1): the cyclic part
    a^k has order 2n / gcd(2n, k), and (x·a^k)^2 = a^n of order 2, so every
    x-coset element has order 4. Tests confirm this against a multiplication
    table built from the presentation.
    """
    if n < 2:
        raise ValueError(f"dicyclic requires n >= 2, got {n}")
    _check_size(f"dicyclic({n})", 4 * n)
    a_orders = [2 * n // gcd(2 * n, k) for k in range(2 * n)]
    a_labels = [_power_label("a", k) for k in range(2 * n)]
    x_orders = [4] * (2 * n)
    x_labels = ["x" if k == 0 else f"x{_power_label('a', k)}" for k in range(2 * n)]
    return GroupSpec(
        "dicyclic",
        {"n": n},
        tuple(a_labels + x_labels),
        tuple(a_orders + x_orders),
    )


def elementary_abelian(p: int, m: int) -> GroupSpec:
    """(Z_p)^m: identity plus p^m - 1 elements of order p."""
    if not is_prime(p):
        raise ValueError(f"elementary_abelian requires a prime p, got {p}")
    if m < 1:
        raise ValueError(f"elementary_abelian requires m >= 1, got {m}")
    # p >= 2, so p**m is over the limit once m reaches its bit length; a huge m is never raised
    _check_size(f"elementary_abelian({p},{m})", p ** min(m, MAX_ELEMENTS.bit_length()))
    size = p**m
    vectors = [[(k // p**j) % p for j in range(m)] for k in range(size)]
    labels = tuple(",".join(str(c) for c in v) for v in vectors)
    orders = tuple(1 if all(c == 0 for c in v) else p for v in vectors)
    return GroupSpec("elementary_abelian", {"p": p, "m": m}, labels, orders)


def heisenberg(p: int) -> GroupSpec:
    """Upper unitriangular 3x3 matrices over F_p, enumerated explicitly.

    A matrix is the triple (a, b, c) of its strictly-upper entries, and
    (a, b, c)^k = (ka, kb + C(k,2)ac, kc). For odd p, C(p,2) is divisible by
    p, so every other element has order p. For p = 2 (the dihedral group of
    order 8) (1, b, 1) squares to (0, 1, 0) and has order 4; the rest have
    order 2. Tests confirm this against a multiplication table.
    """
    if not is_prime(p):
        raise ValueError(f"heisenberg requires a prime p, got {p}")
    _check_size(f"heisenberg({p})", p**3)
    triples = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    labels = tuple(f"({a},{b},{c})" for a, b, c in triples)
    orders = tuple(
        1 if a == b == c == 0 else 4 if p == 2 and a == c == 1 else p for a, b, c in triples
    )
    return GroupSpec("heisenberg", {"p": p}, labels, orders)


def direct_product(g: GroupSpec, h: GroupSpec) -> GroupSpec:
    """G x H; the order of (a, b) is lcm(o(a), o(b))."""
    _check_size(f"product({g.describe()},{h.describe()})", g.size * h.size)
    labels = []
    orders = []
    for la, oa in zip(g.labels, g.orders):
        for lb, ob in zip(h.labels, h.orders):
            labels.append(f"({la},{lb})")
            orders.append(lcm(oa, ob))
    return GroupSpec(
        "product", {"left": g.describe(), "right": h.describe()}, tuple(labels), tuple(orders)
    )


def from_orders(labels: list[str], orders: list[int]) -> GroupSpec:
    """A user-supplied group given only as labels and element orders.

    An order list alone cannot prove group-ness, so Lagrange violations
    (an order not dividing the element count) show in the spec's
    ``warnings`` rather than as an error. Structural problems -- no identity,
    several identities, mismatched lengths -- are rejected by GroupSpec.
    """
    n = len(orders)
    _check_size(f"custom(order={n})", n)
    return GroupSpec("custom", {"n": n}, tuple(labels), tuple(orders))


def _cyclic_product(a: int, b: int) -> GroupSpec:
    return direct_product(cyclic(a), cyclic(b))


def group_keys(max_order: int, families) -> list[tuple[int, str, str, Callable, tuple]]:
    """Every built-in group of order <= max_order in the given families, not yet built.

    Returns (order, family, params, constructor, args) sorted by (order,
    family, params), where params is a compact text such as ``n=6``,
    ``p=3,m=2`` or ``cyclic(2)xcyclic(3)`` and ``constructor(*args)`` builds
    the spec. An unknown family or a max_order above MAX_ELEMENTS raises
    ValueError.
    """
    if max_order > MAX_ELEMENTS:
        raise ValueError(f"max_order {max_order} is above MAX_ELEMENTS = {MAX_ELEMENTS}")
    for f in families:
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r}; choose from {', '.join(FAMILIES)}")
    found = []
    # (Z_p)^m with m >= 2 and the Heisenberg group of order p^3 need p <= sqrt(max_order)
    primes = [p for p in range(2, isqrt(max(max_order, 0)) + 1) if is_prime(p)]
    if "cyclic" in families:
        found += [(n, "cyclic", f"n={n}", cyclic, (n,)) for n in range(3, max_order + 1)]
    if "dihedral" in families:
        found += [(2 * n, "dihedral", f"n={n}", dihedral, (n,))
                  for n in range(2, max_order // 2 + 1)]
    if "dicyclic" in families:
        found += [(4 * n, "dicyclic", f"n={n}", dicyclic, (n,))
                  for n in range(2, max_order // 4 + 1)]
    if "elementary_abelian" in families:
        for p in primes:
            m = 2
            while p**m <= max_order:
                found.append((p**m, "elementary_abelian", f"p={p},m={m}", elementary_abelian, (p, m)))
                m += 1
    if "heisenberg" in families:
        found += [(p**3, "heisenberg", f"p={p}", heisenberg, (p,))
                  for p in primes if p**3 <= max_order]
    if "product" in families:
        found += [(a * b, "product", f"cyclic({a})xcyclic({b})", _cyclic_product, (a, b))
                  for a in range(2, max_order // 2 + 1) for b in range(a, max_order // a + 1)]
    found.sort(key=lambda item: item[:3])
    return found


def enumerate_groups(max_order: int, families) -> Iterator[tuple[int, str, str, GroupSpec]]:
    """(order, family, params, GroupSpec) for each of ``group_keys``, in its
    order; each spec is built only when it is yielded, and bad arguments raise
    ValueError at once."""
    return ((order, family, params, build(*args))
            for order, family, params, build, args in group_keys(max_order, families))
