"""Finite groups reduced to labeled element-order profiles.

The coprimality graph of a group depends only on element orders, so a group
is stored as an int64 array of element orders and the ascending array of its
distinct orders, both computed by a formula per family, plus family
metadata; its labels are made only when read. Full multiplication tables
are never kept here; tests rebuild them from the defining presentations
where an independent oracle is wanted.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt, lcm

import numpy as np

from .numtheory import divisors, is_one_or_prime, is_prime

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
# the 64-bit Q of verify 128 MiB; a complete graph's export streams with a VmHWM of about 33 MiB
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
        its temporaries stay small, each block from its diagonal on and mirrored
        below it. A gcd that is itself a class order takes that class's verdict.
        In a group every gcd is one, since the orders are closed under divisors
        (x^(o(x)/d) has order d); only the other gcds, of order lists that are
        no group, are tested, once per distinct gcd in a block."""
        k = len(self.orders)
        edge = np.empty((k, k), dtype=bool)
        for r in range(0, k, _GCD_BLOCK_ROWS):
            rows = slice(r, r + _GCD_BLOCK_ROWS)
            gcds = np.gcd.outer(self.orders[rows], self.orders[r:])
            at = np.searchsorted(self.orders, gcds)  # in range: a gcd is at most a class order
            block, unknown = self.one_or_prime[at], self.orders[at] != gcds
            if unknown.any():
                rest = gcds[unknown]
                others = np.unique(rest)
                verdict = np.array([is_one_or_prime(v) for v in others.tolist()])
                block[unknown] = verdict[np.searchsorted(others, rest)]
            edge[rows, r:] = block
            edge[r:, rows] = block.T
        edge.setflags(write=False)
        return edge

    @cached_property
    def quotient(self) -> TwinQuotient:
        """The graph's twin quotient: elements of one order are twins."""
        return TwinQuotient(self.class_of, self.adjacent, self.sizes)


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A finite group as an array of element orders, with labels made on first read.

    Exactly one element has order 1, and every order is positive.
    ``class_orders`` lists the distinct orders, ascending, as the family's
    formula gives them; ``order_classes`` checks them against the elements
    when it is first read. The identity's index and the ``warnings`` are
    derived from the orders alone, as the graph is. ``orders`` and
    ``labels`` read as tuples of Python ints and strs, each made once;
    ``make_labels()`` gives the labels in element order. Equality goes by
    identity.
    """

    family: str
    params: dict
    order_array: np.ndarray  # (n,) int64, read-only: the order of each element
    class_orders: np.ndarray  # (k,) int64, read-only: the distinct element orders, ascending
    make_labels: Callable[[], tuple[str, ...]]

    def __post_init__(self):
        orders = np.asarray(self.order_array, dtype=np.int64)
        if not orders.size:
            raise ValueError("a group needs at least one element")
        identities = np.count_nonzero(orders == 1)
        if identities != 1:
            raise ValueError(f"expected exactly one identity element, found {identities}")
        if orders.min() < 1:
            raise ValueError("element orders must be positive")
        classes = np.asarray(self.class_orders, dtype=np.int64)
        for a in (orders, classes):
            a.setflags(write=False)
        object.__setattr__(self, "order_array", orders)
        object.__setattr__(self, "class_orders", classes)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.order_array.tolist())

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return self.make_labels()

    @cached_property
    def identity_index(self) -> int:
        return int(np.argmin(self.order_array))

    @cached_property
    def warnings(self) -> tuple[tuple[str, str], ...]:
        """Machine-readable (code, message) pairs: each element whose order
        does not divide |G| (Lagrange), in element order, then ``small_group``
        when |G| <= 2, since the graph definition assumes |G| > 2. Only a
        class whose order fails has its elements listed."""
        n, oc = self.size, self.order_classes
        failed = np.flatnonzero((n % oc.orders != 0)[oc.class_of])
        warnings = tuple(
            ("lagrange_violation", f"order {o} of element {self.labels[i]!r} does not divide group size {n}")
            for i, o in zip(failed.tolist(), self.order_array[failed].tolist())
        )
        if n <= 2:
            warnings += (
                ("small_group", f"|G|={n} is at or below 2; the graph definition assumes |G|>2"),
            )
        return warnings

    @property
    def size(self) -> int:
        return len(self.order_array)

    @cached_property
    def order_classes(self) -> OrderClasses:
        """The order classes, derived once per spec from ``class_orders``, with
        no sort of the elements. Every group-side criterion reads them, so
        primality is tested once per distinct order, never once per element.
        Raises ValueError unless ``class_orders`` are a non-empty, strictly
        ascending list that holds every element's order and no order without
        an element."""
        orders, k = self.class_orders, len(self.class_orders)
        if orders.ndim != 1 or not k or (orders[1:] <= orders[:-1]).any():
            raise ValueError("class_orders must be a non-empty, strictly ascending list of orders")
        class_of = np.searchsorted(orders, self.order_array)
        listed = orders.take(class_of, mode="clip") == self.order_array
        if not listed.all():
            i = int(np.argmin(listed))
            raise ValueError(f"the order {self.order_array[i]} of element {i} is not in class_orders")
        sizes = np.bincount(class_of, minlength=k)
        if not sizes.all():
            raise ValueError(f"class_orders list the order {orders[np.argmin(sizes)]}, which no element has")
        one_or_prime = np.array([is_one_or_prime(o) for o in orders.tolist()], dtype=bool)
        for a in (class_of, one_or_prime, sizes):
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


def _check_max_order(top: int) -> None:
    """Refuse an element order that int64 cannot hold."""
    if top > MAX_ORDER:
        raise ValueError(f"element orders must be at most 2**63 - 1, got {top}")


def order_profile(g: GroupSpec) -> dict[int, int]:
    """Multiset of element orders as {order: count}, ascending by order."""
    oc = g.order_classes
    return dict(zip(oc.orders.tolist(), oc.sizes.tolist()))


def _cyclic_orders(n: int) -> np.ndarray:
    """The orders of Z_n's elements 0..n-1: k has order n / gcd(n, k)."""
    return n // np.gcd(np.arange(n), n)


def cyclic(n: int) -> GroupSpec:
    """Z_n under addition; element k has order n / gcd(n, k), so the orders are the divisors of n."""
    if n < 1:
        raise ValueError(f"cyclic requires n >= 1, got {n}")
    _check_size(f"cyclic({n})", n)
    return GroupSpec("cyclic", {"n": n}, _cyclic_orders(n), divisors(n), lambda: tuple(map(str, range(n))))


def _power_labels(sym: str, n: int, prefix: str = "") -> list[str]:
    """``prefix + sym^k`` for k < n, with sym^0 written ``1`` (nothing after a prefix)
    and sym^1 written ``sym``."""
    return ([prefix or "1", prefix + sym] + [f"{prefix}{sym}^{k}" for k in range(2, n)])[:n]


def dihedral(n: int) -> GroupSpec:
    """D_n of size 2n: rotations r^i first, then the n reflections s·r^i.

    Every reflection has order 2; rotation r^i has order n / gcd(n, i).
    """
    if n < 1:
        raise ValueError(f"dihedral requires n >= 1, got {n}")
    _check_size(f"dihedral({n})", 2 * n)
    orders = np.concatenate([_cyclic_orders(n), np.full(n, 2)])
    return GroupSpec("dihedral", {"n": n}, orders, sorted({*divisors(n), 2}),
                     lambda: tuple(_power_labels("r", n) + _power_labels("r", n, "s")))


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
    orders = np.concatenate([_cyclic_orders(2 * n), np.full(2 * n, 4)])
    return GroupSpec("dicyclic", {"n": n}, orders, sorted({*divisors(2 * n), 4}),
                     lambda: tuple(_power_labels("a", 2 * n) + _power_labels("a", 2 * n, "x")))


def _identity_then(size: int, order: int) -> np.ndarray:
    """The orders of a group whose elements other than the first all have one order."""
    orders = np.full(size, order)
    orders[0] = 1
    return orders


def elementary_abelian(p: int, m: int) -> GroupSpec:
    """(Z_p)^m: identity plus p^m - 1 elements of order p. Element k is the
    vector of its base-p digits, least significant first."""
    if not is_prime(p):
        raise ValueError(f"elementary_abelian requires a prime p, got {p}")
    if m < 1:
        raise ValueError(f"elementary_abelian requires m >= 1, got {m}")
    # p >= 2, so p**m is over the limit once m reaches its bit length; a huge m is never raised
    _check_size(f"elementary_abelian({p},{m})", p ** min(m, MAX_ELEMENTS.bit_length()))
    return GroupSpec("elementary_abelian", {"p": p, "m": m}, _identity_then(p**m, p), [1, p],
                     lambda: tuple(",".join(str(k // p**j % p) for j in range(m)) for k in range(p**m)))


def heisenberg(p: int) -> GroupSpec:
    """Upper unitriangular 3x3 matrices over F_p, enumerated explicitly.

    A matrix is the triple (a, b, c) of its strictly-upper entries, element
    a·p² + b·p + c, and (a, b, c)^k = (ka, kb + C(k,2)ac, kc). For odd p,
    C(p,2) is divisible by p, so every other element has order p. For p = 2
    (the dihedral group of order 8) (1, b, 1), elements 5 and 7, squares to
    (0, 1, 0) and has order 4; the rest have order 2. Tests confirm this
    against a multiplication table.
    """
    if not is_prime(p):
        raise ValueError(f"heisenberg requires a prime p, got {p}")
    _check_size(f"heisenberg({p})", p**3)
    orders = _identity_then(p**3, p)
    if p == 2:
        orders[[5, 7]] = 4
    return GroupSpec("heisenberg", {"p": p}, orders, [1, 2, 4] if p == 2 else [1, p],
                     lambda: tuple(f"({a},{b},{c})" for a in range(p) for b in range(p) for c in range(p)))


def direct_product(g: GroupSpec, h: GroupSpec) -> GroupSpec:
    """G x H, the pairs (a, b) with a major; the order of (a, b) is lcm(o(a), o(b)), so the
    class orders are the distinct lcms of a class order of G and one of H."""
    _check_size(f"product({g.describe()},{h.describe()})", g.size * h.size)
    if g.class_orders[-1] > MAX_ORDER // h.class_orders[-1]:  # an lcm may pass int64
        _check_max_order(max(lcm(x, y) for x in g.class_orders.tolist() for y in h.class_orders.tolist()))
    return GroupSpec("product", {"left": g.describe(), "right": h.describe()},
                     np.lcm.outer(g.order_array, h.order_array).ravel(),
                     sorted(set(np.lcm.outer(g.class_orders, h.class_orders).ravel().tolist())),
                     lambda: tuple(f"({la},{lb})" for la in g.labels for lb in h.labels))


def from_orders(labels: list[str], orders: list[int]) -> GroupSpec:
    """A user-supplied group given only as labels and element orders.

    An order list alone cannot prove group-ness, so Lagrange violations
    (an order not dividing the element count) show in the spec's
    ``warnings`` rather than as an error. Structural problems raise
    ValueError, the first found in this order: no labels, mismatched lengths,
    repeated labels, an order that is not an int (a Python or numpy integer,
    not a bool), then the spec's checks (one identity, positive orders), then
    an order beyond int64.
    """
    n = len(orders)
    _check_size(f"custom(order={n})", n)
    labels = tuple(labels)
    if not labels:
        raise ValueError("a group needs at least one element")
    if len(labels) != n:
        raise ValueError("labels and orders must have equal length")
    if len(set(labels)) != n:
        raise ValueError("element labels must be unique")
    for o in orders:  # before the int64 conversion, which would truncate 2.5 to 2
        if isinstance(o, bool) or not isinstance(o, (int, np.integer)):
            raise ValueError(f"element orders must be integers, got {o!r}")
    try:
        array = np.array(orders, dtype=np.int64)
    except OverflowError:  # clipped into int64 range, so the spec's own checks still come first
        array = np.array(orders, dtype=object).clip(0, MAX_ORDER).astype(np.int64)
    spec = GroupSpec("custom", {"n": n}, array, np.unique(array), lambda: labels)  # the one sort of n orders
    _check_max_order(max(orders))
    return spec


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
