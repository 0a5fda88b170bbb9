"""Group constructors against independent presentation/Cayley-table oracles."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

from thetagraph.graph import build_theta
from thetagraph.groups import (
    FAMILIES,
    MAX_ELEMENTS,
    GroupSpec,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    enumerate_groups,
    from_orders,
    group_keys,
    heisenberg,
    order_profile,
)
from thetagraph.numtheory import divisors, euler_phi, is_prime


# ---------------------------------------------------------------------------
# oracles: multiplication tables straight from the defining presentations
# ---------------------------------------------------------------------------


def _orders_by_repeated_mult(elements, mult, identity):
    orders = []
    for e in elements:
        x, o = e, 1
        while x != identity:
            x = mult(x, e)
            o += 1
        orders.append(o)
    return orders


def _dicyclic_cayley_orders(n):
    # elements a^i x^j with 0 <= i < 2n, j in {0, 1}; relations a^{2n}=1,
    # x^2 = a^n, x a^k = a^{-k} x
    elements = [(i, j) for j in (0, 1) for i in range(2 * n)]

    def mult(e1, e2):
        i, j = e1
        k, l = e2
        if j == 0:
            return ((i + k) % (2 * n), l)
        i2 = (i - k) % (2 * n)
        if l == 0:
            return (i2, 1)
        return ((i2 + n) % (2 * n), 0)

    return elements, _orders_by_repeated_mult(elements, mult, (0, 0))


def _heisenberg_cayley_orders(p):
    elements = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

    def mult(m1, m2):
        a1, b1, c1 = m1
        a2, b2, c2 = m2
        return ((a1 + a2) % p, (b1 + b2 + a1 * c2) % p, (c1 + c2) % p)

    return elements, _orders_by_repeated_mult(elements, mult, (0, 0, 0))


def _cyclic_addition_orders(n):
    def mult(a, b):
        return (a + b) % n

    return _orders_by_repeated_mult(list(range(n)), mult, 0)


# ---------------------------------------------------------------------------
# cyclic
# ---------------------------------------------------------------------------


def test_cyclic_6_orders():
    assert list(cyclic(6).orders) == [1, 6, 3, 2, 3, 6]


def test_cyclic_1_is_trivial():
    g = cyclic(1)
    assert g.size == 1 and g.orders == (1,)


def test_cyclic_8_element_4_has_order_2():
    assert cyclic(8).orders[4] == 2


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclic_matches_repeated_addition(n):
    assert list(cyclic(n).orders) == _cyclic_addition_orders(n)


# ---------------------------------------------------------------------------
# dihedral
# ---------------------------------------------------------------------------


def test_dihedral_3_profile():
    assert order_profile(dihedral(3)) == {1: 1, 2: 3, 3: 2}


def test_dihedral_6_reflections_all_order_2():
    g = dihedral(6)
    assert all(o == 2 for o in g.orders[6:])


def test_dihedral_1_is_c2():
    assert order_profile(dihedral(1)) == {1: 1, 2: 1}


def test_dihedral_rotations_match_cyclic():
    for n in (2, 5, 9, 12):
        assert dihedral(n).orders[:n] == cyclic(n).orders


# ---------------------------------------------------------------------------
# dicyclic
# ---------------------------------------------------------------------------


def test_dicyclic_3_prime_or_identity_elements():
    g = dicyclic(3)
    s_labels = {g.labels[i] for i, o in enumerate(g.orders) if o == 1 or o in (2, 3, 5, 7, 11)}
    assert s_labels == {"1", "a^2", "a^3", "a^4"}


def test_dicyclic_3_xa_has_order_4():
    g = dicyclic(3)
    assert g.orders[g.labels.index("xa")] == 4


def test_dicyclic_2_is_quaternion_profile():
    assert order_profile(dicyclic(2)) == {1: 1, 2: 1, 4: 6}


def test_dicyclic_3_profile():
    assert order_profile(dicyclic(3)) == {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}


def test_dicyclic_rejects_n_below_2():
    with pytest.raises(ValueError):
        dicyclic(1)


@pytest.mark.parametrize("n", range(2, 7))
def test_dicyclic_matches_cayley_table(n):
    elements, oracle = _dicyclic_cayley_orders(n)
    g = dicyclic(n)
    assert list(g.orders) == oracle
    # presentation consequence: every x-coset element has order 4
    assert all(o == 4 for (i, j), o in zip(elements, oracle) if j == 1)


# ---------------------------------------------------------------------------
# elementary abelian, heisenberg
# ---------------------------------------------------------------------------


def test_elementary_abelian_profiles():
    assert order_profile(elementary_abelian(3, 2)) == {1: 1, 3: 8}
    assert order_profile(elementary_abelian(2, 3)) == {1: 1, 2: 7}
    assert order_profile(elementary_abelian(5, 1)) == order_profile(cyclic(5))


def test_elementary_abelian_rejects_composite_p():
    with pytest.raises(ValueError):
        elementary_abelian(6, 2)


def test_heisenberg_profiles():
    assert order_profile(heisenberg(3)) == {1: 1, 3: 26}
    assert order_profile(heisenberg(2)) == {1: 1, 2: 5, 4: 2}
    assert order_profile(heisenberg(5)) == {1: 1, 5: 124}


def test_heisenberg_rejects_composite_p():
    with pytest.raises(ValueError):
        heisenberg(4)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_heisenberg_matches_cayley_table(p):
    _, oracle = _heisenberg_cayley_orders(p)
    assert list(heisenberg(p).orders) == oracle


@pytest.mark.parametrize("p", (3, 5, 7))
def test_heisenberg_odd_p_has_exponent_p(p):
    g = heisenberg(p)
    assert all(o == p for i, o in enumerate(g.orders) if i != g.identity_index)


# ---------------------------------------------------------------------------
# products and custom groups
# ---------------------------------------------------------------------------


def test_product_c3_c3_matches_elementary_abelian():
    assert order_profile(direct_product(cyclic(3), cyclic(3))) == {1: 1, 3: 8}


def test_product_c2_c3_matches_cyclic_6():
    assert order_profile(direct_product(cyclic(2), cyclic(3))) == order_profile(cyclic(6))


def test_product_c4_c2_profile():
    assert order_profile(direct_product(cyclic(4), cyclic(2))) == {1: 1, 2: 3, 4: 4}


def test_product_order_is_lcm_over_all_pairs():
    g, h = cyclic(4), cyclic(6)
    prod = direct_product(g, h)
    expected = Counter(math.lcm(a, b) for a in g.orders for b in h.orders)
    assert order_profile(prod) == dict(sorted(expected.items()))


def test_from_orders_valid():
    g = from_orders(["e", "a", "b"], [1, 3, 3])
    assert g.size == 3 and g.warnings == ()


def test_from_orders_lagrange_warning():
    g = from_orders(["e", "a"], [1, 3])
    assert any(code == "lagrange_violation" for code, _ in g.warnings)


def test_from_orders_rejects_double_identity():
    with pytest.raises(ValueError, match="exactly one identity element, found 2"):
        from_orders(["e", "e2"], [1, 1])
    with pytest.raises(ValueError, match="exactly one identity element, found 0"):
        from_orders(["a", "b"], [2, 2])


def test_from_orders_rejects_empty_and_mismatched():
    with pytest.raises(ValueError, match="at least one element"):
        from_orders([], [])
    # a length mismatch either way reaches the spec's own check, not an IndexError
    with pytest.raises(ValueError, match="equal length"):
        from_orders(["e"], [1, 2])
    with pytest.raises(ValueError, match="equal length"):
        from_orders(["e", "a", "b"], [1, 2])


def test_from_orders_caps_orders_at_int64():
    t = build_theta(from_orders(["e", "a"], [1, 2**63 - 1]))
    assert t.edge_count == 1
    with pytest.raises(ValueError, match="at most 2"):
        from_orders(["e", "a"], [1, 2**63])


@pytest.mark.parametrize("order", [2.5, 3.0, "3", True, np.float64(3)], ids=repr)
def test_from_orders_rejects_an_order_that_is_not_an_integer(order):
    # the int64 conversion would make 2.5 an element of order 2
    with pytest.raises(ValueError, match=f"orders must be integers, got {re.escape(repr(order))}"):
        from_orders(["e", "a", "b"], [1, order, 3])
    # after the label checks, before the spec's identity check
    with pytest.raises(ValueError, match="labels must be unique"):
        from_orders(["e", "e", "b"], [1, order, 3])
    with pytest.raises(ValueError, match="orders must be integers"):
        from_orders(["a", "b"], [2, order])


def test_from_orders_accepts_numpy_integers():
    g = from_orders(["e", "a", "b"], [np.int64(1), np.int64(3), np.int32(3)])
    assert g.orders == (1, 3, 3) and all(type(o) is int for o in g.orders)
    assert build_theta(g).edge_count == 3


@pytest.mark.parametrize(
    "build",
    [
        lambda: cyclic(10**9),
        lambda: dihedral(MAX_ELEMENTS // 2 + 1),
        lambda: dicyclic(10**12),
        lambda: elementary_abelian(3, 10**9),
        lambda: heisenberg(1009),
        lambda: direct_product(cyclic(200), cyclic(200)),
        lambda: from_orders([str(k) for k in range(MAX_ELEMENTS + 1)], [1] + [2] * MAX_ELEMENTS),
    ],
    ids=["cyclic", "dihedral", "dicyclic", "elementary_abelian", "heisenberg", "product", "custom"],
)
def test_constructors_refuse_groups_above_max_elements_before_building(build):
    # without the cap each of these builds every element first: minutes or
    # an exhausted memory instead of an error
    with pytest.raises(ValueError, match="MAX_ELEMENTS"):
        build()


def test_max_elements_boundary_and_largest_built_in_groups_still_build():
    assert cyclic(MAX_ELEMENTS).size == MAX_ELEMENTS
    assert dihedral(MAX_ELEMENTS // 2).size == MAX_ELEMENTS
    assert cyclic(1201).size == 1201
    assert heisenberg(11).size == 1331
    assert direct_product(cyclic(30), cyclic(35)).size == 1050


def test_enumerate_groups_rejects_max_order_above_max_elements():
    with pytest.raises(ValueError, match="MAX_ELEMENTS"):
        enumerate_groups(MAX_ELEMENTS + 1, ["cyclic"])


def test_order_profile_examples():
    assert order_profile(cyclic(4)) == {1: 1, 2: 1, 4: 2}
    assert order_profile(dihedral(3)) == {1: 1, 2: 3, 3: 2}
    assert order_profile(dicyclic(3)) == {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}


# ---------------------------------------------------------------------------
# family-wide invariants
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# the identity and the warnings, derived from the orders
# ---------------------------------------------------------------------------


def _small_group_warning(n):
    return ("small_group", f"|G|={n} is at or below 2; the graph definition assumes |G|>2")


def _lagrange_warning(label, order, n):
    return ("lagrange_violation", f"order {order} of element {label!r} does not divide group size {n}")


_IDENTITY_SECOND = from_orders(["a", "e"], [2, 1])
_CUSTOM_WARNINGS = {
    (("e", "a"), (1, 3)): (_lagrange_warning("a", 3, 2), _small_group_warning(2)),
    (("e", "a", "b", "c"), (1, 3, 2, 2)): (_lagrange_warning("a", 3, 4),),
}


def _built_in_groups():
    """Every built-in group of order <= 200, plus the degenerate ones below order 3."""
    yield from (build(*args) for *_, build, args in group_keys(200, FAMILIES))
    yield from (cyclic(1), cyclic(2), dihedral(1))


def _identity_by_construction():
    """(spec, identity index): the families list the identity first, a custom
    list where its order 1 stands, and G x H at e_G * |H| + e_H."""
    yield from ((g, 0) for g in _built_in_groups())
    yield from ((from_orders(list(labels), list(orders)), 0) for labels, orders in _CUSTOM_WARNINGS)
    yield _IDENTITY_SECOND, 1
    yield direct_product(_IDENTITY_SECOND, cyclic(3)), 1 * 3 + 0
    yield direct_product(cyclic(3), _IDENTITY_SECOND), 0 * 2 + 1
    yield direct_product(_IDENTITY_SECOND, _IDENTITY_SECOND), 1 * 2 + 1


def test_identity_index_is_derived_from_the_orders():
    for g, identity in _identity_by_construction():
        assert g.identity_index == identity, g.describe()
        assert g.orders[identity] == 1, g.describe()


def test_built_in_groups_warn_only_when_small():
    for g in _built_in_groups():
        assert g.warnings == (() if g.size > 2 else (_small_group_warning(g.size),)), g.describe()


def test_custom_groups_list_lagrange_violations_then_small_group():
    for (labels, orders), warnings in _CUSTOM_WARNINGS.items():
        assert from_orders(list(labels), list(orders)).warnings == warnings


def test_product_with_a_lagrange_violating_factor_keeps_its_warnings():
    g = direct_product(from_orders(["e", "a"], [1, 3]), cyclic(2))
    assert g.orders == (1, 2, 3, 6)
    assert g.warnings == (_lagrange_warning("(a,0)", 3, 4), _lagrange_warning("(a,1)", 6, 4))


def test_group_spec_holds_only_what_it_is_given():
    fields = ["family", "params", "order_array", "class_orders", "make_labels"]
    assert [f.name for f in dataclasses.fields(GroupSpec)] == fields
    g = from_orders(["e", "a"], [1, 3])
    assert g.warnings is g.warnings  # computed once
    for name, value in (("identity_index", 1), ("warnings", ()), ("labels", ()), ("orders", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)
        with pytest.raises(TypeError):
            GroupSpec("custom", {"n": 2}, np.array([1, 3]), [1, 3], lambda: ("e", "a"), **{name: value})
    assert not g.order_array.flags.writeable and not g.class_orders.flags.writeable


# ---------------------------------------------------------------------------
# class orders by formula, against the elements
# ---------------------------------------------------------------------------


def test_class_orders_by_formula_are_the_distinct_element_orders_of_every_group_to_600():
    keys = group_keys(600, FAMILIES)
    for _, family, params, build, args in keys:
        g = build(*args)
        distinct, counts = np.unique(g.order_array, return_counts=True)
        assert g.class_orders.dtype == np.int64 and not g.class_orders.flags.writeable, params
        assert g.class_orders.tolist() == distinct.tolist(), (family, params)
        assert g.order_classes.sizes.tolist() == counts.tolist(), (family, params)
        profile = order_profile(g)
        if family == "cyclic":
            assert profile == {d: euler_phi(d) for d in divisors(*args)}, params
        elif family == "dihedral":
            assert profile == Counter(order_profile(cyclic(*args))) + Counter({2: args[0]}), params
        elif family == "dicyclic":
            assert profile == Counter(order_profile(cyclic(2 * args[0]))) + Counter({4: 2 * args[0]}), params
    assert {family for _, family, *_ in keys} == set(FAMILIES)


@pytest.mark.parametrize(
    "class_orders, message",
    [
        ([1, 3], "the order 2 of element 2 is not in class_orders"),  # an element's order left out
        ([1, 2], "the order 3 of element 1 is not in class_orders"),  # past the largest listed
        ([1, 2, 3, 5], "class_orders list the order 5, which no element has"),
        ([1, 2, 3, 4], "class_orders list the order 4, which no element has"),
        ([1, 3, 2], "strictly ascending"),
        ([1, 2, 2, 3], "strictly ascending"),
        ([[1, 2, 3]], "strictly ascending"),
        ([], "non-empty"),
    ],
)
def test_class_orders_that_do_not_match_the_elements_raise(class_orders, message):
    g = GroupSpec("custom", {"n": 4}, np.array([1, 3, 2, 3]), class_orders, lambda: ("e", "a", "b", "c"))
    with pytest.raises(ValueError, match=message):
        g.order_classes
    with pytest.raises(ValueError, match=message):
        build_theta(g)


def test_no_built_in_family_sorts_its_elements_to_find_its_classes(monkeypatch):
    # only from_orders, whose orders are the user's, sorts its n orders, once
    sorted_sizes = []
    unique = np.unique

    def counting(values, *args, **kwargs):
        sorted_sizes.append(np.size(values))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    for _, family, params, build, args in group_keys(200, FAMILIES):
        build(*args).order_classes.adjacent
        assert sorted_sizes == [], (family, params)
    from_orders(["e", "a", "b", "c"], [1, 3, 2, 3]).order_classes.adjacent
    assert sorted_sizes == [4]



# ---------------------------------------------------------------------------
# slow-path oracle: the constructors one element at a time, as they once were
# ---------------------------------------------------------------------------


def _slow_power_label(sym, k):
    return "1" if k == 0 else sym if k == 1 else f"{sym}^{k}"


def _slow_cyclic(n):
    return [str(k) for k in range(n)], [n // math.gcd(n, k) for k in range(n)]


def _slow_dihedral(n):
    labels = [_slow_power_label("r", i) for i in range(n)]
    labels += ["s" if i == 0 else f"s{_slow_power_label('r', i)}" for i in range(n)]
    return labels, [n // math.gcd(n, i) for i in range(n)] + [2] * n


def _slow_dicyclic(n):
    labels = [_slow_power_label("a", k) for k in range(2 * n)]
    labels += ["x" if k == 0 else f"x{_slow_power_label('a', k)}" for k in range(2 * n)]
    return labels, [2 * n // math.gcd(2 * n, k) for k in range(2 * n)] + [4] * (2 * n)


def _slow_elementary_abelian(p, m):
    vectors = [[(k // p**j) % p for j in range(m)] for k in range(p**m)]
    labels = [",".join(str(c) for c in v) for v in vectors]
    return labels, [1 if all(c == 0 for c in v) else p for v in vectors]


def _slow_heisenberg(p):
    triples = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    labels = [f"({a},{b},{c})" for a, b, c in triples]
    orders = [1 if a == b == c == 0 else 4 if p == 2 and a == c == 1 else p for a, b, c in triples]
    return labels, orders


def _slow_product(g, h):
    (lg, og), (lh, oh) = g, h
    labels = [f"({la},{lb})" for la in lg for lb in lh]
    return labels, [math.lcm(oa, ob) for oa in og for ob in oh]


_SLOW = {"cyclic": _slow_cyclic, "dihedral": _slow_dihedral, "dicyclic": _slow_dicyclic,
         "elementary_abelian": _slow_elementary_abelian, "heisenberg": _slow_heisenberg,
         "product": lambda a, b: _slow_product(_slow_cyclic(a), _slow_cyclic(b))}


def _slow_warnings(labels, orders):
    n = len(orders)
    warnings = [_lagrange_warning(label, o, n) for label, o in zip(labels, orders) if n % o != 0]
    return tuple(warnings + ([_small_group_warning(n)] if n <= 2 else []))


def _assert_matches_slow_path(g, labels, orders):
    assert g.orders == tuple(orders) and all(type(o) is int for o in g.orders), g.describe()
    assert g.labels == tuple(labels) and all(type(x) is str for x in g.labels), g.describe()
    assert g.order_array.dtype == np.int64 and g.order_array.tolist() == orders, g.describe()
    assert g.identity_index == orders.index(1), g.describe()
    assert g.warnings == _slow_warnings(labels, orders), g.describe()


def test_every_built_in_group_to_512_matches_the_per_element_constructors():
    keys = group_keys(512, FAMILIES)
    for _, family, _, build, args in keys:
        _assert_matches_slow_path(build(*args), *_SLOW[family](*args))
    assert {family for _, family, *_ in keys} == set(FAMILIES)


_CUSTOM_FACTORS = (
    (["e", "a"], [1, 3]),
    (["e", "a", "b", "c"], [1, 3, 2, 3]),
    (["1", "x", "y"], [1, 2, 5]),
    (["e", "a", "b"], [1, 3, 3]),
)


@pytest.mark.parametrize("custom", _CUSTOM_FACTORS, ids=lambda c: ",".join(map(str, c[1])))
def test_products_with_a_custom_factor_match_the_per_element_constructors(custom):
    g = from_orders(*custom)
    factors = [(g, custom), (cyclic(4), _slow_cyclic(4)), (dihedral(3), _slow_dihedral(3)),
               (heisenberg(2), _slow_heisenberg(2))]
    for left, slow_left in factors:
        for right, slow_right in factors:
            _assert_matches_slow_path(direct_product(left, right), *_slow_product(slow_left, slow_right))
    nested = direct_product(direct_product(g, cyclic(2)), g)
    _assert_matches_slow_path(nested, *_slow_product(_slow_product(custom, _slow_cyclic(2)), custom))


def test_labels_are_made_on_first_read_only():
    made = []
    g = direct_product(cyclic(3), from_orders(["e", "a"], [1, 2]))
    g = dataclasses.replace(g, make_labels=lambda: made.append(1) or ("x",) * 6)
    assert g.identity_index == 0 and g.warnings == () and g.orders == (1, 2, 3, 6, 3, 6)
    assert build_theta(g).n_vertices == 6 and made == []
    assert g.labels is g.labels and made == [1]


def test_products_refuse_an_order_beyond_int64_and_keep_the_largest_that_fits():
    big = from_orders(["e", "a"], [1, 2**61 + 1])
    with pytest.raises(ValueError, match=f"at most 2\\*\\*63 - 1, got {4 * (2**61 + 1)}"):
        direct_product(cyclic(4), big)
    assert direct_product(big, cyclic(2)).orders == (1, 2, 2**61 + 1, 2 * (2**61 + 1))
    top = from_orders(["e", "a"], [1, 2**63 - 1])
    assert direct_product(top, top).orders == (1, 2**63 - 1, 2**63 - 1, 2**63 - 1)


@pytest.mark.parametrize(
    "labels, orders, message",
    [
        (["e", "a", "b"], [1, 1, 10**30], "exactly one identity element, found 2"),
        (["e", "a"], [1, -(10**30)], "must be positive"),
        (["e", "a", "b"], [2, -(10**30), 10**30], "exactly one identity element, found 0"),
        (["e", "e"], [1, 10**30], "labels must be unique"),
        ([], [1], "at least one element"),
        (["e", "a"], [1, 10**30], f"at most 2\\*\\*63 - 1, got {10**30}"),
    ],
)
def test_from_orders_checks_in_one_order_beyond_int64_too(labels, orders, message):
    with pytest.raises(ValueError, match=message):
        from_orders(labels, orders)

def _family_samples():
    for n in range(1, 20):
        yield cyclic(n), n
    for n in range(1, 12):
        yield dihedral(n), 2 * n
    for n in range(2, 8):
        yield dicyclic(n), 4 * n
    for p, m in ((2, 2), (2, 4), (3, 2), (5, 2)):
        yield elementary_abelian(p, m), p**m
    for p in (2, 3):
        yield heisenberg(p), p**3
    yield direct_product(cyclic(3), dihedral(2)), 12


@pytest.mark.parametrize("g, expected_size", list(_family_samples()))
def test_size_and_lagrange(g, expected_size):
    assert g.size == expected_size
    assert all(g.size % o == 0 for o in g.orders)
    assert g.orders[g.identity_index] == 1
    assert len(set(g.labels)) == g.size
    profile = order_profile(g)
    assert sum(profile.values()) == g.size
    assert profile[1] == 1


# ---------------------------------------------------------------------------
# the family enumerator
# ---------------------------------------------------------------------------


def test_enumerate_groups_is_sorted_with_search_params():
    items = list(enumerate_groups(12, ["dihedral", "cyclic", "dicyclic", "elementary_abelian",
                                       "heisenberg", "product"]))
    keys = [item[:3] for item in items]
    assert keys == sorted(keys)
    assert keys[:4] == [(3, "cyclic", "n=3"), (4, "cyclic", "n=4"), (4, "dihedral", "n=2"),
                        (4, "elementary_abelian", "p=2,m=2")]
    assert (8, "heisenberg", "p=2") in keys
    assert (12, "product", "cyclic(2)xcyclic(6)") in keys
    assert (12, "dicyclic", "n=3") in keys
    for order, family, _, g in items:
        assert g.size == order
        assert g.family == family


def test_enumerate_groups_only_requested_families():
    items = list(enumerate_groups(30, ["heisenberg", "elementary_abelian"]))
    assert [item[:3] for item in items] == [
        (4, "elementary_abelian", "p=2,m=2"),
        (8, "elementary_abelian", "p=2,m=3"),
        (8, "heisenberg", "p=2"),
        (9, "elementary_abelian", "p=3,m=2"),
        (16, "elementary_abelian", "p=2,m=4"),
        (25, "elementary_abelian", "p=5,m=2"),
        (27, "elementary_abelian", "p=3,m=3"),
        (27, "heisenberg", "p=3"),
    ]


def test_group_keys_at_max_elements_list_every_prime_power_family_member():
    primes = [p for p in range(2, MAX_ELEMENTS + 1) if is_prime(p)]
    expected_ea = sorted(
        f"p={p},m={m}" for p in primes for m in range(2, MAX_ELEMENTS.bit_length())
        if p**m <= MAX_ELEMENTS
    )
    expected_heisenberg = sorted(f"p={p}" for p in primes if p**3 <= MAX_ELEMENTS)
    keys = group_keys(MAX_ELEMENTS, ["elementary_abelian", "heisenberg"])
    assert sorted(params for _, family, params, *_ in keys if family == "elementary_abelian") \
        == expected_ea
    assert sorted(params for _, family, params, *_ in keys if family == "heisenberg") \
        == expected_heisenberg
    assert "p=61,m=2" in expected_ea and "p=13" in expected_heisenberg
    for order, family, params, build, args in keys:
        assert build(*args).size == order


def test_enumerate_groups_rejects_unknown_family_before_iterating():
    with pytest.raises(ValueError, match="sporadic"):
        enumerate_groups(10, ["cyclic", "sporadic"])
