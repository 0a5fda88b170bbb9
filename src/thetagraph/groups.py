"""Finite groups reduced to labeled element-order profiles.

The coprimality graph of a group depends only on element orders, so a group
is stored as its order profile: the ascending distinct orders, the number of
elements of each, the identity's index and the size, all given by a formula
per family, plus family metadata. Its elements' orders and labels are made
only when read. Full multiplication tables are never kept here; tests
rebuild them from the defining presentations where an independent oracle is
wanted.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import isqrt, lcm

import numpy as np

from .numtheory import divisors_with_phi, is_one_or_prime, is_prime

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
    joined iff ``adjacent[class_of[u], class_of[v]]``, so the diagonal marks the clique classes.
    ``class_of`` is made by ``make_class_of`` on first read; only vertex-level work reads it."""

    adjacent: np.ndarray  # (k, k) bool, symmetric
    sizes: np.ndarray  # (k,) int64: the number of vertices in each class
    make_class_of: Callable[[], np.ndarray]  # the (n,) int64 class of each vertex
    degrees: np.ndarray = field(init=False)  # (k,) int64: the degree of each vertex of a class

    def __post_init__(self):
        object.__setattr__(self, "degrees", self.adjacent @ self.sizes - self.adjacent.diagonal())
        for a in (self.adjacent, self.sizes, self.degrees):
            a.setflags(write=False)

    @cached_property
    def class_of(self) -> np.ndarray:
        """(n,) int64, read-only: the class of each vertex."""
        class_of = self.make_class_of()
        class_of.setflags(write=False)
        return class_of

    # The class searches read the k-sized facts below, each a Python value made on first read:
    # at k of 2 to 48, numpy's per-call cost outweighs the work on arrays this small.

    @cached_property
    def rows(self) -> list[int]:
        """The neighbour classes of each class as one int: bit j of ``rows[c]`` is set when
        class j != c is joined to c. The diagonal is kept apart, in ``cliques``."""
        packed = np.packbits(self.adjacent, axis=1, bitorder="little")
        return [int.from_bytes(row, "little") & ~(1 << c) for c, row in enumerate(packed)]

    @cached_property
    def cliques(self) -> int:
        """The clique classes, whose members are joined to each other, as bits."""
        return int.from_bytes(np.packbits(self.adjacent.diagonal(), bitorder="little"), "little")

    @cached_property
    def size_list(self) -> list[int]:
        return self.sizes.tolist()

    @cached_property
    def degree_list(self) -> list[int]:
        return self.degrees.tolist()

    @cached_property
    def edge_count(self) -> int:
        return sum(map(int.__mul__, self.degree_list, self.size_list)) // 2

    @cached_property
    def expansion(self) -> np.ndarray:
        """(n, n) bool, read-only: the adjacency matrix, made on first use."""
        adj = self.adjacent[self.class_of][:, self.class_of]  # rows, then columns: faster than np.ix_
        np.fill_diagonal(adj, False)
        adj.setflags(write=False)
        return adj


@dataclass(frozen=True, eq=False)
class OrderClasses:
    """A group's elements grouped by order; the arrays are read-only. ``class_of`` is made
    by ``make_class_of`` on first read, which checks the elements against the classes."""

    orders: np.ndarray  # (k,) int64: the distinct element orders, ascending
    sizes: np.ndarray  # (k,) int64: the number of elements in each class
    one_or_prime: np.ndarray  # (k,) bool: the class order is 1 or a prime
    make_class_of: Callable[[], np.ndarray]  # the (n,) index in orders of each element's order

    @cached_property
    def class_of(self) -> np.ndarray:
        """(n,) int64, read-only: the class of each element."""
        return self.make_class_of()

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
        return TwinQuotient(self.adjacent, self.sizes, self.make_class_of)


def _made_once(make: Callable[[], np.ndarray]) -> Callable[[], np.ndarray]:
    """make, called on the first call only; later calls return what it made."""
    made = None

    def once() -> np.ndarray:
        nonlocal made
        if made is None:
            made = make()
        return made

    return once


def _checked_class_of(make_orders, classes: np.ndarray, sizes: np.ndarray, identity: int) -> np.ndarray:
    """The class in ``classes`` of each element of ``make_orders()``, read-only. Raises
    ValueError, the first found in this order, if an element's order is not listed, a listed
    order or a class size is not the elements', or the element at ``identity`` is not of order 1."""
    orders = np.asarray(make_orders(), dtype=np.int64)
    class_of = np.searchsorted(classes, orders)
    listed = classes.take(class_of, mode="clip") == orders
    if not listed.all():
        i = int(np.argmin(listed))
        raise ValueError(f"the order {orders[i]} of element {i} is not in class_orders")
    counts = np.bincount(class_of, minlength=len(classes))
    if not counts.all():
        raise ValueError(f"class_orders list the order {classes[np.argmin(counts)]}, which no element has")
    if (counts != sizes).any():
        c = int(np.argmax(counts != sizes))
        raise ValueError(f"class_sizes give {sizes[c]} elements of order {classes[c]}, but {counts[c]} have it")
    if orders[identity] != 1:
        raise ValueError(f"the element at identity_index {identity} has order {orders[identity]}, not 1")
    class_of.setflags(write=False)
    return class_of


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A finite group as its order profile, with its elements made on first read.

    ``class_orders`` lists the distinct element orders, ascending, and
    ``class_sizes`` the number of elements of each; ``identity_index`` is the
    identity's place among the ``size`` elements. The spec checks these when
    it is made. ``make_orders()`` gives the elements' orders and
    ``make_labels()`` their labels, in element order; the first read of
    ``order_array`` or ``order_classes.class_of`` checks the orders against
    the profile. ``orders`` and ``labels`` read as tuples of Python ints and
    strs, each made once. Equality goes by identity.
    """

    family: str
    params: dict
    class_orders: np.ndarray  # (k,) int64, read-only: the distinct element orders, ascending
    class_sizes: np.ndarray  # (k,) int64, read-only: the number of elements of each order
    identity_index: int
    size: int
    make_orders: Callable[[], np.ndarray]
    make_labels: Callable[[], tuple[str, ...]]

    def __post_init__(self):
        classes = np.asarray(self.class_orders, dtype=np.int64)
        sizes = np.asarray(self.class_sizes, dtype=np.int64)
        # checked on Python lists: at k of 2 to 48, a numpy call costs more than the check
        orders, counts = classes.tolist(), sizes.tolist()
        if classes.ndim != 1 or not orders or any(a >= b for a, b in zip(orders, orders[1:])):
            raise ValueError("class_orders must be a non-empty, strictly ascending list of orders")
        if sizes.shape != classes.shape or min(counts) < 1 or sum(counts) != self.size:
            raise ValueError(f"class_sizes must be a positive count per class order, summing to the size {self.size}")
        identities = counts[orders.index(1)] if 1 in orders else 0
        if identities != 1:
            raise ValueError(f"expected exactly one identity element, found {identities}")
        if orders[0] < 1:
            raise ValueError("element orders must be positive")
        if not 0 <= self.identity_index < self.size:
            raise ValueError(f"identity_index {self.identity_index} is not an element of {self.size}")
        for a in (classes, sizes):
            a.setflags(write=False)
        object.__setattr__(self, "class_orders", classes)
        object.__setattr__(self, "class_sizes", sizes)

    @cached_property
    def order_array(self) -> np.ndarray:
        """(n,) int64, read-only: the order of each element, made on first read."""
        orders = self.class_orders[self.order_classes.class_of]
        orders.setflags(write=False)
        return orders

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.order_array.tolist())

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return self.make_labels()

    @cached_property
    def warnings(self) -> tuple[tuple[str, str], ...]:
        """Machine-readable (code, message) pairs: each element whose order
        does not divide |G| (Lagrange), in element order, then ``small_group``
        when |G| <= 2, since the graph definition assumes |G| > 2. Lagrange is
        tested once per class order, and only a class whose order fails has
        its elements listed."""
        n = self.size
        failed = [c for c, o in enumerate(self.class_orders.tolist()) if n % o]
        warnings = ()
        if failed:
            at = np.flatnonzero(np.isin(self.order_classes.class_of, failed))
            warnings = tuple(
                ("lagrange_violation", f"order {o} of element {self.labels[i]!r} does not divide group size {n}")
                for i, o in zip(at.tolist(), self.order_array[at].tolist())
            )
        if n <= 2:
            warnings += (
                ("small_group", f"|G|={n} is at or below 2; the graph definition assumes |G|>2"),
            )
        return warnings

    @cached_property
    def order_classes(self) -> OrderClasses:
        """The order classes, made once per spec from the profile, so primality
        is tested once per class order, never once per element. Their
        ``class_of`` is made from ``make_orders()`` on first read, and raises
        ValueError unless the elements match the profile."""
        one_or_prime = np.array([is_one_or_prime(o) for o in self.class_orders.tolist()], dtype=bool)
        one_or_prime.setflags(write=False)
        # one maker for the classes and their quotient, holding no reference back to either
        make_class_of = _made_once(partial(_checked_class_of, self.make_orders, self.class_orders,
                                           self.class_sizes, self.identity_index))
        return OrderClasses(self.class_orders, self.class_sizes, one_or_prime, make_class_of)

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
    return dict(zip(g.class_orders.tolist(), g.class_sizes.tolist()))


def _from_profile(family: str, params: dict, counts: dict[int, int], make_orders, make_labels,
                  identity: int = 0) -> GroupSpec:
    """The spec of the group with counts[o] elements of order o."""
    orders = sorted(counts)
    return GroupSpec(family, params, orders, [counts[o] for o in orders], identity, sum(counts.values()),
                     make_orders, make_labels)


def _cyclic_orders(n: int) -> np.ndarray:
    """The orders of Z_n's elements 0..n-1: k has order n / gcd(n, k)."""
    return n // np.gcd(np.arange(n), n)


def cyclic(n: int) -> GroupSpec:
    """Z_n under addition; element k has order n / gcd(n, k), so Z_n has phi(d) elements of
    order d for each divisor d of n."""
    if n < 1:
        raise ValueError(f"cyclic requires n >= 1, got {n}")
    _check_size(f"cyclic({n})", n)
    return _from_profile("cyclic", {"n": n}, dict(divisors_with_phi(n)), partial(_cyclic_orders, n),
                         lambda: tuple(map(str, range(n))))


def _power_labels(sym: str, n: int, prefix: str = "") -> list[str]:
    """``prefix + sym^k`` for k < n, with sym^0 written ``1`` (nothing after a prefix)
    and sym^1 written ``sym``."""
    return ([prefix or "1", prefix + sym] + [f"{prefix}{sym}^{k}" for k in range(2, n)])[:n]


def _cyclic_then(n: int, size: int, order: int) -> dict[int, int]:
    """The profile of Z_n's elements followed by ``size`` more of one order."""
    counts = dict(divisors_with_phi(n))
    counts[order] = counts.get(order, 0) + size
    return counts


def dihedral(n: int) -> GroupSpec:
    """D_n of size 2n: rotations r^i first, then the n reflections s·r^i.

    Every reflection has order 2; rotation r^i has order n / gcd(n, i).
    """
    if n < 1:
        raise ValueError(f"dihedral requires n >= 1, got {n}")
    _check_size(f"dihedral({n})", 2 * n)
    return _from_profile("dihedral", {"n": n}, _cyclic_then(n, n, 2),
                         lambda: np.concatenate([_cyclic_orders(n), np.full(n, 2)]),
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
    return _from_profile("dicyclic", {"n": n}, _cyclic_then(2 * n, 2 * n, 4),
                         lambda: np.concatenate([_cyclic_orders(2 * n), np.full(2 * n, 4)]),
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
    return _from_profile("elementary_abelian", {"p": p, "m": m}, {1: 1, p: p**m - 1}, partial(_identity_then, p**m, p),
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
    return _from_profile("heisenberg", {"p": p}, {1: 1, 2: 5, 4: 2} if p == 2 else {1: 1, p: p**3 - 1},
                         lambda: np.array([1, 2, 2, 2, 2, 4, 2, 4]) if p == 2 else _identity_then(p**3, p),
                         lambda: tuple(f"({a},{b},{c})" for a in range(p) for b in range(p) for c in range(p)))


def direct_product(g: GroupSpec, h: GroupSpec) -> GroupSpec:
    """G x H, the pairs (a, b) with a major; the order of (a, b) is lcm(o(a), o(b)), so its
    profile is the lcm convolution of the two: x·y elements of order lcm(o, p) for x elements
    of order o in G and y of order p in H. The identity is the pair of the identities."""
    _check_size(f"product({g.describe()},{h.describe()})", g.size * h.size)
    counts = Counter()
    for a, x in zip(g.class_orders.tolist(), g.class_sizes.tolist()):
        for b, y in zip(h.class_orders.tolist(), h.class_sizes.tolist()):
            counts[lcm(a, b)] += x * y
    _check_max_order(max(counts))
    return _from_profile("product", {"left": g.describe(), "right": h.describe()}, counts,
                         lambda: np.lcm.outer(g.order_array, h.order_array).ravel(),
                         lambda: tuple(f"({la},{lb})" for la in g.labels for lb in h.labels),
                         g.identity_index * h.size + h.identity_index)


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
    classes, sizes = np.unique(array, return_counts=True)  # the one sort of n orders
    # the identity is the least order, if the spec finds exactly one 1 and no order below it
    spec = GroupSpec("custom", {"n": n}, classes, sizes, int(np.argmin(array)), n, lambda: array, lambda: labels)
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
