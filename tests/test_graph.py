import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import thetagraph.graph
import thetagraph.groups
from thetagraph.graph import (
    _json_text,
    build_theta,
    dot_pieces,
    export_dot,
    export_json,
    from_adjacency,
    json_pieces,
    prime_order_set,
)
from thetagraph.groups import (
    FAMILIES,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    enumerate_groups,
    from_orders,
    heisenberg,
)
from thetagraph.numtheory import divisors, is_one_or_prime, is_prime
from thetagraph.verify import corrupting_builder

from dense_view import edge_list


def test_theta_z6_is_k6_minus_generator_edge():
    t = build_theta(cyclic(6))
    for i in range(6):
        for j in range(6):
            expected = i != j and not {i, j} == {1, 5}
            assert bool(t.adj[i, j]) is expected
    assert t.edge_count == 14


def test_theta_z7_is_complete():
    t = build_theta(cyclic(7))
    assert t.edge_count == 7 * 6 // 2


def test_theta_d4_reflections_adjacent_to_all_rotations():
    t = build_theta(dihedral(4))
    for refl in range(4, 8):
        for rot in range(4):
            assert t.adj[refl, rot]


def test_adjacent_examples():
    t = build_theta(cyclic(12))
    assert t.adj[2, 3]  # orders 6 and 4, gcd 2
    assert not t.adj[1, 5]  # orders 12 and 12, gcd 12
    assert not t.adj[4, 4]


def test_prime_order_set_z12():
    t = build_theta(cyclic(12))
    assert prime_order_set(t) == {0, 4, 6, 8}


@pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (5, 7)])
def test_prime_order_set_size_pq(p, q):
    t = build_theta(cyclic(p * q))
    assert len(prime_order_set(t)) == p + q - 1


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2), (5, 2)])
def test_prime_order_set_size_prime_power(p, m):
    t = build_theta(cyclic(p**m))
    assert len(prime_order_set(t)) == p


@pytest.mark.parametrize("q", [3, 5, 7])
def test_generator_degree_in_z_2q(q):
    t = build_theta(cyclic(2 * q))
    gen = [k for k in range(2 * q) if math.gcd(k, 2 * q) == 1]
    assert all(t.degrees[v] == q + 1 for v in gen)


def test_z8_degree_structure():
    t = build_theta(cyclic(8))
    assert t.degrees[0] == 7
    assert sorted(t.degrees.tolist()).count(7) == 2


def test_z9_min_degree():
    t = build_theta(cyclic(9))
    assert t.degrees.min() == 3
    gen = [k for k in range(9) if math.gcd(k, 9) == 1]
    for v in gen:
        assert set(np.flatnonzero(t.adj[v]).tolist()) == {0, 3, 6}


def test_export_dot_triangle():
    text = export_dot(build_theta(cyclic(3)))
    assert text.count(";") == 6  # 3 nodes + 3 edges
    assert '"0" -- "1";' in text


def test_export_dot_z4():
    text = export_dot(build_theta(cyclic(4)))
    assert text.count(" -- ") == 5


def test_export_json_roundtrip_bit_for_bit():
    t = build_theta(dicyclic(3))
    doc = json.loads(export_json(t))
    n = len(doc["labels"])
    rebuilt = np.zeros((n, n), dtype=bool)
    for i, j in doc["edges"]:
        assert i < j
        rebuilt[i, j] = rebuilt[j, i] = True
    assert np.array_equal(rebuilt, t.adj)
    assert doc["degrees"] == t.degrees.tolist()
    assert doc["orders"] == list(t.group.orders)


# ---------------------------------------------------------------------------
# exporters against the per-edge serialisers they replaced
# ---------------------------------------------------------------------------


def _reference_export_dot(t):
    lines = ["graph theta {"]
    for label in t.group.labels:
        lines.append(f'  "{label}";')
    for i, j in edge_list(t):
        lines.append(f'  "{t.group.labels[i]}" -- "{t.group.labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reference_export_json(t):
    doc = {
        "group": {
            "family": t.group.family,
            "params": t.group.params,
            "order": t.group.size,
        },
        "labels": list(t.group.labels),
        "orders": list(t.group.orders),
        "edges": [[i, j] for i, j in edge_list(t)],
        "degrees": t.degrees.tolist(),
        "warnings": [{"code": c, "message": m} for c, m in t.group.warnings],
    }
    return json.dumps(doc, indent=2) + "\n"


# 100 distinct products p * q of primes p < q
_SEMIPRIMES = sorted(
    p * q for p in range(2, 60) for q in range(p + 1, 60) if is_prime(p) and is_prime(q)
)[:100]


def _assert_exports_match_reference(t):
    assert export_json(t) == _reference_export_json(t)
    assert export_dot(t) == _reference_export_dot(t)


@pytest.mark.parametrize(
    "g",
    [
        cyclic(1),
        cyclic(2),
        dicyclic(3),
        heisenberg(5),
        direct_product(cyclic(6), cyclic(35)),
        from_orders(["e", "α", "β→γ", "δ"], [1, 2, 4, 4]),
        # 13 order classes, interleaved across the whole vertex range
        cyclic(4096),
        direct_product(cyclic(64), cyclic(64)),
        # 100 two-member classes whose members sit 100 apart: each second member's row starts mid-list
        from_orders([f"g{k}" for k in range(201)], [1] + _SEMIPRIMES + _SEMIPRIMES),
    ],
    ids=lambda g: g.describe(),
)
def test_exports_match_per_edge_reference(g):
    _assert_exports_match_reference(build_theta(g))


def test_exports_match_per_edge_reference_on_every_group_to_64():
    groups = [g for *_, g in enumerate_groups(64, FAMILIES)]
    assert len(groups) == 199
    for g in groups:
        _assert_exports_match_reference(build_theta(g))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from((2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 25, 35)), min_size=1, max_size=18))
def test_exports_match_per_edge_reference_on_any_order_list(orders):
    # the order lists of tests/test_random_graphs.py
    labels = [f"g{k}" for k in range(len(orders) + 1)]
    _assert_exports_match_reference(build_theta(from_orders(labels, [1] + orders)))


@st.composite
def _twin_matrices(draw):
    """A symmetric zero-diagonal 0/1 matrix on 1 to 40 vertices, each of one of a few kinds,
    joined by kind, then with a few pairs flipped. The vertices of a kind with no edge inside
    it have equal rows, so the classes have many members, interleave, and most rows start in
    the middle of their class's list."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 6))
    kind = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    joined = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))).reshape(k, k)
    adj = (joined | joined.T)[np.ix_(kind, kind)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)):
        adj[i, j] = adj[j, i] = not adj[i, j]
    np.fill_diagonal(adj, False)
    return adj


@settings(deadline=None, max_examples=100)
@given(_twin_matrices(), st.integers(1, 512))
def test_exports_match_per_edge_reference_on_any_matrix_in_blocks_of_any_size(adj, chars):
    # each row drops the front of its class's list up to its start: the classes of a matrix
    # are its own, not order classes, and the block size sets where each block closes
    t = from_adjacency(cyclic(len(adj)), adj)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thetagraph.graph, "_PIECE_CHARS", chars)
        _assert_exports_match_reference(t)


def test_exports_match_per_edge_reference_on_a_corrupted_graph_of_every_group_to_32():
    # one flipped bit splits the classes it touches: the rows are read off the graph's own classes
    for order, *_, g in enumerate_groups(32, FAMILIES):
        if order >= 2:  # corrupting_builder leaves the one-vertex graph as it is
            _assert_exports_match_reference(corrupting_builder(g))


def test_exports_match_per_edge_reference_on_a_graph_that_is_not_its_groups():
    t = build_theta(cyclic(6))
    adj = t.adj.copy()
    adj[1, 5] = adj[5, 1] = True  # the two elements of order 6 are not adjacent in Θ(Z_6)
    u = from_adjacency(t.group, adj)
    _assert_exports_match_reference(u)
    assert "[\n      1,\n      5\n    ]" in export_json(u) and '"1" -- "5"' in export_dot(u)
    with pytest.raises(ValueError, match="symmetric 6 x 6"):
        from_adjacency(t.group, adj[:5, :5])


@pytest.mark.parametrize("chars", [1, 64, 4096])
def test_exports_match_per_edge_reference_in_blocks_of_any_size(monkeypatch, chars):
    monkeypatch.setattr(thetagraph.graph, "_PIECE_CHARS", chars)
    d6 = build_theta(dihedral(6))
    corrupted = d6.adj.copy()
    corrupted[7, :] = corrupted[:, 7] = False  # a reflection left isolated
    corrupted[1, 5] = corrupted[5, 1] = True  # two elements of order 6 joined
    graphs = [
        build_theta(cyclic(1)),
        build_theta(cyclic(2)),
        from_adjacency(cyclic(3), np.zeros((3, 3), dtype=bool)),
        # independent classes (orders 4 and 25) interleaved with clique classes (orders 2 and 3)
        build_theta(from_orders([f"g{k}" for k in range(11)], [1, 4, 2, 25, 3, 4, 2, 25, 3, 4, 3])),
        build_theta(dihedral(60)),
        from_adjacency(d6.group, corrupted),
    ]
    for t in graphs:
        _assert_exports_match_reference(t)


def _edge_blocks(t, fmt):
    """The edge pieces of t's export, each JSON one after the first checked to start with its
    separator, which is cut off."""
    if fmt == "dot":
        return list(dot_pieces(t))[1:-1]
    pieces = list(json_pieces(t))
    assert pieces[0].endswith('"edges": [\n') and not pieces[1].startswith(",\n")
    assert all(block.startswith(",\n") for block in pieces[2:-1])
    return pieces[1:2] + [block.removeprefix(",\n") for block in pieces[2:-1]]


@pytest.mark.parametrize("chars", [1, 64, 2**18])
def test_no_json_piece_holds_only_a_separator(monkeypatch, chars):
    monkeypatch.setattr(thetagraph.graph, "_PIECE_CHARS", chars)
    for t in (build_theta(cyclic(1)), build_theta(cyclic(2)), build_theta(dihedral(6)), build_theta(heisenberg(5))):
        pieces = list(json_pieces(t))
        assert "".join(pieces) == export_json(t)
        assert not {"", "\n", ",\n"} & set(pieces)


def _greedy_blocks(rows, sep, size):
    """The rows joined by sep into blocks, each closed by the first row that brings it to size characters."""
    blocks, block, length = [], [], 0
    for row in rows:
        length += len(row) + (len(sep) if block else 0)
        block.append(row)
        if length >= size:
            blocks.append(sep.join(block))
            block, length = [], 0
    return blocks + ([sep.join(block)] if block else [])


@pytest.mark.parametrize("fmt, sep", [("json", ",\n"), ("dot", "")])
def test_edge_blocks_close_at_the_first_row_that_reaches_the_piece_size(monkeypatch, fmt, sep):
    t = build_theta(dihedral(6))
    monkeypatch.setattr(thetagraph.graph, "_PIECE_CHARS", 1)
    rows = _edge_blocks(t, fmt)
    assert len(rows) == 11
    for size in range(1, len(sep.join(rows)) + 2):
        monkeypatch.setattr(thetagraph.graph, "_PIECE_CHARS", size)
        assert _edge_blocks(t, fmt) == _greedy_blocks(rows, sep, size), size


@pytest.mark.parametrize("fmt, sep", [("json", ",\n"), ("dot", "")])
def test_a_complete_export_goes_out_in_blocks_of_whole_rows(monkeypatch, fmt, sep):
    t = build_theta(heisenberg(11))  # K_1331, the largest export of the benchmark
    size = thetagraph.graph._PIECE_CHARS
    blocks = _edge_blocks(t, fmt)
    monkeypatch.setattr(thetagraph.graph, "_PIECE_CHARS", 1)
    rows = _edge_blocks(t, fmt)
    assert len(rows) == 1330 and len(blocks) < 150
    assert blocks == _greedy_blocks(rows, sep, size)
    assert all(len(b) >= size for b in blocks[:-1])
    assert max(map(len, blocks)) <= size + len(sep) + max(map(len, rows))


def test_export_without_edges_keeps_empty_edge_list():
    t = build_theta(cyclic(1))
    assert '\n  "edges": [],\n' in export_json(t)
    assert export_dot(t) == 'graph theta {\n  "0";\n}\n'


def test_export_sha256_pinned_for_heisenberg_5():
    # recorded from the per-edge serialisers
    t = build_theta(heisenberg(5))
    assert hashlib.sha256(export_json(t).encode()).hexdigest() == (
        "e3863869b5eddca109f8a522506868f106787a7e59319c8c65180b71fe9d7f3a"
    )
    assert hashlib.sha256(export_dot(t).encode()).hexdigest() == (
        "ecb0bdeaf78c885b59c6bcb04c10de55a42278f44dda8bbb5b2e2e583d157b0b"
    )


_DOT_QUOTED_ID = re.compile(r'"((?:[^"\\]|\\.)*)"')


def test_export_functions_return_text():
    # package API: compared byte for byte in these tests and measured with len() by perfbench
    t = build_theta(cyclic(6))
    assert type(export_json(t)) is str and type(export_dot(t)) is str


def test_export_dot_escapes_quotes_and_backslashes_in_ids():
    labels = ["e", 'a"b', "c\\"]
    t = build_theta(from_orders(labels, [1, 2, 2]))
    text = export_dot(t)
    body = text.splitlines()[1:-1]
    ids = []
    for line in body:
        # a line is one quoted ID or two joined by " -- ", each well-formed, then ";"
        assert re.fullmatch(rf'  {_DOT_QUOTED_ID.pattern}( -- {_DOT_QUOTED_ID.pattern})?;', line), line
        ids.append([re.sub(r"\\(.)", r"\1", m) for m in _DOT_QUOTED_ID.findall(line)])
    assert ids[:3] == [["e"], ['a"b'], ["c\\"]]
    assert ids[3:] == [[labels[i], labels[j]] for i, j in edge_list(t)]


def test_export_json_edge_counts():
    assert len(json.loads(export_json(build_theta(cyclic(6))))["edges"]) == 14
    assert len(json.loads(export_json(build_theta(dihedral(6))))["edges"]) == 65


def test_small_group_warning():
    for n in (1, 2):
        t = build_theta(cyclic(n))
        assert any(code == "small_group" for code, _ in t.group.warnings)
    assert not any(code == "small_group" for code, _ in build_theta(cyclic(3)).group.warnings)


def _derived_graph_groups():
    yield from (g for *_, g in enumerate_groups(64, FAMILIES))
    yield cyclic(1)
    yield cyclic(2)
    # user groups carry Lagrange warnings
    yield from_orders(["e", "a"], [1, 3])
    yield from_orders(["e", "a", "b", "c"], [1, 3, 2, 2])


@pytest.mark.parametrize("build", [build_theta, corrupting_builder], ids=lambda b: b.__name__)
def test_graph_derives_degrees_warnings_and_prime_order_set(build):
    for g in _derived_graph_groups():
        t = build(g)
        name = g.describe()
        assert np.array_equal(t.degrees, t.adj.sum(axis=1)), name
        assert t.degrees.dtype == np.int64, name
        assert not t.adj.flags.writeable and not t.degrees.flags.writeable, name
        codes = [code for code, _ in t.group.warnings]
        lagrange = [o for o in g.orders if g.size % o]
        assert codes == ["lagrange_violation"] * len(lagrange) + ["small_group"] * (g.size <= 2), name
        s = prime_order_set(t)
        assert type(s) is frozenset, name
        assert s == {i for i, o in enumerate(g.orders) if is_one_or_prime(o)}, name


def test_graphs_compare_and_hash_by_identity():
    t, u = build_theta(cyclic(6)), build_theta(cyclic(6))
    assert t == t and t != u
    assert {t: 1, u: 2}[t] == 1 and hash(t) != hash(u)


def test_graphs_of_one_group_share_its_expansion_made_once():
    g = dihedral(6)
    t, u = build_theta(g), build_theta(g)
    q = g.order_classes.quotient
    assert t.quotient is u.quotient is q
    assert t.adj is u.adj is q.expansion and not q.expansion.flags.writeable
    rule = [
        [i != j and is_one_or_prime(math.gcd(a, b)) for j, b in enumerate(g.orders)]
        for i, a in enumerate(g.orders)
    ]
    assert q.expansion.tolist() == rule
    corrupted = corrupting_builder(g)  # flips a bit in a copy, not in the group's matrix
    assert corrupted.adj.tolist() != rule and q.expansion.tolist() == rule


@pytest.mark.parametrize("build", [build_theta, corrupting_builder], ids=lambda b: b.__name__)
def test_from_adjacency_round_trips_adj_and_degrees(build):
    groups = [g for *_, g in enumerate_groups(64, FAMILIES)]
    assert len(groups) == 199
    for g in groups:
        t = build(g)
        u = from_adjacency(g, t.adj)
        assert np.array_equal(u.adj, t.adj) and np.array_equal(u.degrees, t.degrees), g.describe()
        assert u.edge_count == t.edge_count and u.degrees.dtype == np.int64, g.describe()
        assert not u.quotient.adjacent.diagonal().any(), g.describe()  # false twins only


def test_from_adjacency_refuses_a_matrix_that_is_not_an_adjacency_of_the_group():
    g = cyclic(6)
    adj = build_theta(g).adj
    asymmetric = adj.copy()
    asymmetric[1, 5] = True
    looped = adj.copy()
    looped[2, 2] = True
    for wrong in (adj[:5, :5], np.zeros((6, 7), dtype=bool), np.zeros(36, dtype=bool), asymmetric, looped):
        with pytest.raises(ValueError, match="symmetric 6 x 6 adjacency matrix with a zero diagonal"):
            from_adjacency(g, wrong)
    assert from_adjacency(g, adj.astype(np.int64)).edge_count == 14  # any dtype, read as bool


def test_primality_is_decided_per_distinct_gcd(monkeypatch):
    # three elements but a gcd of 10**6: testing every integer up to the
    # largest gcd would take a million primality calls
    calls = []

    def counting(v):
        calls.append(v)
        return is_one_or_prime(v)

    monkeypatch.setattr(thetagraph.groups, "is_one_or_prime", counting)
    t = build_theta(from_orders(["e", "a", "b"], [1, 10**6, 10**6]))
    assert len(calls) <= 2 * 2
    assert edge_list(t) == [(0, 1), (0, 2)]


def test_class_adjacency_is_the_gcd_rule_across_row_blocks():
    # 300 order classes: the k x k gcd table is made in two blocks of rows
    primes = [p for p in range(2, 200) if is_prime(p)]
    orders = [1] + sorted(p * q for p in primes for q in primes if p < q)[:299]
    oc = from_orders([f"g{k}" for k in range(300)], orders).order_classes
    assert len(oc.orders) == 300
    assert oc.adjacent.tolist() == [[is_one_or_prime(math.gcd(a, b)) for b in orders] for a in orders]


def test_class_adjacency_is_the_gcd_rule_in_blocks_of_7_rows(monkeypatch):
    # each block from its diagonal on, mirrored below it: blocks of 7 rows make up to 9 of them
    monkeypatch.setattr(thetagraph.groups, "_GCD_BLOCK_ROWS", 7)
    rng = np.random.default_rng(24)
    for k in [1, 2, 7, 8, 14, 15, 60, *rng.integers(1, 61, size=30).tolist()]:
        orders = [1] + sorted(rng.choice(np.arange(2, 720), size=k - 1, replace=False).tolist())
        oc = from_orders([f"g{i}" for i in range(k)], orders).order_classes
        assert oc.adjacent.tolist() == [[is_one_or_prime(math.gcd(a, b)) for b in orders] for a in orders], orders
    # divisor-closed orders (the 30 divisors of 720, whose gcds are all class orders) among
    # multiples of 7, two of which may have a gcd that is no class order: gcds known as class
    # orders and gcds to be tested share a block
    closed, mixed = set(divisors(720)), 0
    for extra in [1, 2, 5, 13, *rng.integers(1, 40, size=12).tolist()]:
        others = rng.choice(np.arange(14, 2000, 7), size=extra, replace=False)
        orders = sorted(closed | set(others.tolist()))
        oc = from_orders([f"g{i}" for i in range(len(orders))], orders).order_classes
        assert oc.adjacent.tolist() == [[is_one_or_prime(math.gcd(a, b)) for b in orders] for a in orders], orders
        mixed += any(math.gcd(a, b) not in orders for a in orders for b in orders)
    assert mixed >= 10


def test_a_group_tests_only_its_class_orders_for_primality(monkeypatch):
    # the orders of a group are closed under divisors, so every gcd of two is a class order
    calls = []

    def counting(v):
        calls.append(v)
        return is_one_or_prime(v)

    monkeypatch.setattr(thetagraph.groups, "is_one_or_prime", counting)
    for _, family, params, g in enumerate_groups(200, FAMILIES):
        calls.clear()
        g.order_classes.adjacent
        assert calls == g.class_orders.tolist(), (family, params)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, 5e-324, 1e300])
    | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=6)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=6)
    | st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=8)
    | st.lists(st.text(), max_size=8),
    max_leaves=40,
)


@seed(24)
@settings(deadline=None, max_examples=200)
@given(_JSON_VALUES)
def test_json_text_is_json_dumps_with_indent_2(value):
    # str keys and texts draw non-ASCII and control characters; ints pass 2**63
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_writes_other_keys_and_refuses_what_json_refuses():
    value = {1: [], 2.5: {}, math.inf: -0.0, True: [True, 1], None: ("a", "\u00e9\x07"), "s": [[1, 2], ["x"]]}
    assert _json_text(value) == json.dumps(value, indent=2)
    for bad in (np.int64(1), {1, 2}, [1, np.int64(1)], {"k": {1}}, {(1, 2): 3}, [b"bytes"]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            _json_text(bad)


def _sample_graphs():
    yield build_theta(cyclic(30))
    yield build_theta(cyclic(64))
    yield build_theta(dihedral(15))
    yield build_theta(dicyclic(7))
    yield build_theta(elementary_abelian(3, 3))
    yield build_theta(heisenberg(3))
    yield build_theta(cyclic(199))
    yield build_theta(direct_product(cyclic(6), cyclic(35)))


@pytest.mark.parametrize("t", list(_sample_graphs()), ids=lambda t: t.group.describe())
def test_structural_invariants(t):
    n = t.n_vertices
    assert np.array_equal(t.adj, t.adj.T)
    assert not t.adj.diagonal().any()
    e = t.group.identity_index
    assert t.degrees[e] == n - 1
    assert t.edge_count * 2 == int(t.degrees.sum())
    # brute-force re-derivation of the adjacency predicate
    orders = t.group.orders
    for i in range(n):
        for j in range(n):
            expected = i != j and is_one_or_prime(math.gcd(orders[i], orders[j]))
            assert bool(t.adj[i, j]) is expected


@pytest.mark.parametrize("n", [4, 6, 9, 12, 30, 45, 60])
def test_composite_cyclic_min_degree_is_s_size_attained_at_generators(n):
    assert not is_prime(n)
    t = build_theta(cyclic(n))
    s = len(prime_order_set(t))
    assert t.degrees.min() == s
    for v in range(n):
        if math.gcd(v, n) == 1:
            assert t.degrees[v] == s
