import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetagraph.graph import build_theta, from_adjacency, prime_order_set
from thetagraph.groups import (
    FAMILIES,
    cyclic,
    dicyclic,
    dihedral,
    enumerate_groups,
    from_orders,
    group_keys,
    heisenberg,
)
from thetagraph.numtheory import is_one_or_prime
from thetagraph.spectra import (
    SpectrumResult,
    Surd,
    UnsupportedFamilyError,
    build_Q,
    closed_form_spectrum,
    eig_sym,
    order_class_spectrum,
    quotient_matrix,
    quotient_spectrum,
    spectra_equal,
    spectrum_contains,
)
from thetagraph.verify import corrupting_builder

TOL = 1e-7


def _entries_numeric(spec):
    return [(pytest.approx(v, abs=1e-9), m) for v, m in spec.numeric_items()]


# ---------------------------------------------------------------------------
# Q construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11])
def test_Q_of_complete_graph_is_shifted_all_ones(p):
    q = build_Q(build_theta(cyclic(p)))
    expected = (p - 2) * np.eye(p, dtype=np.int64) + np.ones((p, p), dtype=np.int64)
    assert np.array_equal(q, expected)


def test_Q_z4_entries():
    q = build_Q(build_theta(cyclic(4)))
    assert q.diagonal().tolist() == [3, 2, 3, 2]
    assert q[1, 3] == 0 and q[3, 1] == 0
    off = q - np.diag(q.diagonal())
    assert off.sum() == 10  # twice the 5 edges


def test_Q_trace_is_degree_sum():
    q = build_Q(build_theta(cyclic(6)))
    assert int(np.trace(q)) == 28


def test_Q_as_float64_gives_the_eigenvalues_of_the_integer_matrix_bit_for_bit():
    for _, _, _, g in enumerate_groups(60, FAMILIES):
        t = build_theta(g)
        q = build_Q(t)
        integer_q = np.diag(t.degrees) + t.adj.astype(np.int64)
        assert q.dtype == np.float64 and np.array_equal(q, integer_q)
        expected = np.linalg.eigvalsh(integer_q.astype(np.float64))
        assert np.linalg.eigvalsh(q).tobytes() == expected.tobytes(), g.describe()
        assert eig_sym(q) == eig_sym(integer_q), g.describe()


def test_eig_sym_hands_a_float64_matrix_to_lapack_without_a_copy(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m) or eigvalsh(m))
    q = build_Q(build_theta(cyclic(12)))
    eig_sym(q)
    assert len(seen) == 1 and seen[0] is q


# ---------------------------------------------------------------------------
# eigensolver (LAPACK eigvalsh via numpy)
# ---------------------------------------------------------------------------


def test_eig_shifted_ones_matrix():
    m = 3 * np.eye(5) + np.ones((5, 5))
    spec = eig_sym(m)
    assert _entries_numeric(spec) == [(pytest.approx(8.0, abs=1e-9), 1), (pytest.approx(3.0, abs=1e-9), 4)]


def test_eig_identity():
    spec = eig_sym(np.eye(4))
    assert spec.entries == ((1.0, 4),)


def test_eig_q_z6():
    spec = eig_sym(build_Q(build_theta(cyclic(6))))
    values = spec.numeric_items()
    assert values[0][0] == pytest.approx(6 + 2 * math.sqrt(3), abs=1e-9)
    assert values[1] == (pytest.approx(4.0, abs=1e-9), 4)
    assert values[2][0] == pytest.approx(6 - 2 * math.sqrt(3), abs=1e-9)


def test_eig_rejects_non_symmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.ones((2, 3)))


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_eig_matches_numpy_on_random_symmetric_int_matrices(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 6, size=(n, n))
    m = (a + a.T).astype(np.int64)
    mine = [v for v, mult in eig_sym(m).numeric_items() for _ in range(mult)]
    theirs = sorted(np.linalg.eigvalsh(m.astype(float)).tolist(), reverse=True)
    assert mine == pytest.approx(theirs, abs=1e-7)


def test_spectrum_invariants_on_group_graphs():
    for g in (cyclic(10), dihedral(8), heisenberg(3)):
        t = build_theta(g)
        q = build_Q(t)
        spec = eig_sym(q)
        assert spec.dimension == t.n_vertices
        trace = float(np.trace(q))
        assert abs(spec.trace() - trace) <= 1e-8 * trace
        assert all(v >= -1e-9 for v, _ in spec.numeric_items())


@pytest.mark.parametrize(
    "family, n", [("cyclic", 243), ("dihedral", 143), ("cyclic", 323)]
)
def test_closed_forms_match_eigensolver_on_large_graphs(family, n):
    # hundreds of vertices: the 1e-7 * ||Q|| grouping must keep distinct
    # eigenvalues apart and put every repeated one in a single group
    ctor = cyclic if family == "cyclic" else dihedral
    closed = closed_form_spectrum(family, n)
    numeric = eig_sym(build_Q(build_theta(ctor(n))))
    assert spectra_equal(closed, numeric, TOL)
    assert [m for _, m in numeric.entries] == [m for _, m in closed.entries]


# ---------------------------------------------------------------------------
# exact surds
# ---------------------------------------------------------------------------


def test_surd_canonicalizes_perfect_squares():
    assert Surd.of(3, 2, 9) == Surd.of(9)
    assert Surd.of(0, 1, 12) == Surd.of(0, 2, 3)
    assert float(Surd.of(6, -2, 3)) == pytest.approx(6 - 2 * math.sqrt(3))


def test_surd_quadratic_pair_rational_case():
    hi, lo = Surd.quadratic_pair(13, 12)  # x^2 - 13x + 12 = (x-1)(x-12)
    assert hi == Surd.of(12) and lo == Surd.of(1)


def test_surd_quadratic_pair_irrational_case():
    hi, lo = Surd.quadratic_pair(12, 24)  # roots 6 +/- 2*sqrt(3)
    assert hi == Surd.of(6, 2, 3)
    assert lo == Surd.of(6, -2, 3)


def test_surd_display():
    assert Surd.of(6, 2, 3).display() == "6+2*sqrt(3)"
    assert Surd.of(6, -2, 3).display() == "6-2*sqrt(3)"
    assert Surd.of(12).display() == "12"
    assert Surd.of(Fraction(27, 2), Fraction(1, 2), 393).display() == "(27+sqrt(393))/2"
    assert Surd.of(0, 1, 5).display() == "sqrt(5)"


def test_surd_numeric_within_one_ulp():
    for a, b, r in ((6, 2, 3), (15, 3, 5), (20, 1, 136), (3, -1, 5)):
        direct = a + b * math.sqrt(r)
        assert math.isclose(float(Surd.of(a, b, r)), direct, rel_tol=0, abs_tol=2 * math.ulp(direct))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_cyclic_9():
    spec = closed_form_spectrum("cyclic", 9)
    assert [(v, m) for v, m in spec.entries] == [
        (Surd.of(12), 1),
        (Surd.of(7), 2),
        (Surd.of(3), 5),
        (Surd.of(1), 1),
    ]


def test_closed_form_cyclic_6():
    spec = closed_form_spectrum("cyclic", 6)
    assert spec.entries == (
        (Surd.of(6, 2, 3), 1),
        (Surd.of(4), 4),
        (Surd.of(6, -2, 3), 1),
    )


def test_closed_form_dihedral_6_merges_coincident_values():
    spec = closed_form_spectrum("dihedral", 6)
    assert spec.entries == (
        (Surd.of(15, 3, 5), 1),
        (Surd.of(10), 10),
        (Surd.of(15, -3, 5), 1),
    )


def test_closed_form_dihedral_9():
    spec = closed_form_spectrum("dihedral", 9)
    assert spec.entries == (
        (Surd.of(20, 1, 136), 1),
        (Surd.of(16), 11),
        (Surd.of(12), 5),
        (Surd.of(20, -1, 136), 1),
    )


def test_closed_form_prime_cases():
    assert closed_form_spectrum("cyclic", 7).entries == ((Surd.of(12), 1), (Surd.of(5), 6))
    # dihedral over a prime is the complete graph on 2n vertices
    assert closed_form_spectrum("dihedral", 5).entries == ((Surd.of(18), 1), (Surd.of(8), 9))


def test_closed_form_unsupported_shapes():
    with pytest.raises(UnsupportedFamilyError, match="pq"):
        closed_form_spectrum("cyclic", 30)
    with pytest.raises(UnsupportedFamilyError):
        closed_form_spectrum("cyclic", 1)
    with pytest.raises(UnsupportedFamilyError):
        closed_form_spectrum("dicyclic", 12)
    with pytest.raises(UnsupportedFamilyError):
        closed_form_spectrum("cyclic", 36)  # 2^2 * 3^2


def _supported(family, n):
    try:
        closed_form_spectrum(family, n)
    except UnsupportedFamilyError:
        return False
    return True


@pytest.mark.parametrize(
    "family, n",
    [(f, n) for f in ("cyclic", "dihedral") for n in range(2, 101) if _supported(f, n)],
)
def test_closed_form_matches_eigensolver(family, n):
    ctor = cyclic if family == "cyclic" else dihedral
    closed = closed_form_spectrum(family, n)
    numeric = eig_sym(build_Q(build_theta(ctor(n))))
    assert spectra_equal(closed, numeric, TOL)
    assert [m for _, m in numeric.entries] == [m for _, m in closed.entries]


@pytest.mark.parametrize("family", ["cyclic", "dihedral"])
def test_closed_form_domain_is_the_complete_split_graphs(family):
    # the graph is a clique S(G) of universal vertices joined to an
    # independent set exactly for the n the closed form supports
    ctor = cyclic if family == "cyclic" else dihedral
    for n in range(2, 301):
        t = build_theta(ctor(n))
        in_s = np.zeros(t.n_vertices, dtype=bool)
        in_s[sorted(prime_order_set(t))] = True
        split = bool(
            (t.degrees[in_s] == t.n_vertices - 1).all() and not t.adj[np.ix_(~in_s, ~in_s)].any()
        )
        assert split == _supported(family, n), f"{family}({n})"


# ---------------------------------------------------------------------------
# equitable partitions
# ---------------------------------------------------------------------------


def test_quotient_z6():
    t = build_theta(cyclic(6))
    blocks = [[0, 2, 3, 4], [1, 5]]
    q = quotient_matrix(t, blocks)
    assert q.dtype == np.int64
    assert q.tolist() == [[8, 2], [4, 4]]
    first = [blk[0] for blk in blocks]
    assert (q - np.diag(t.degrees[first])).tolist() == [[3, 2], [4, 0]]


def test_quotient_z9():
    t = build_theta(cyclic(9))
    q = quotient_matrix(t, [[0, 3, 6], [1, 2, 4, 5, 7, 8]])
    assert q.tolist() == [[10, 6], [3, 3]]


def test_quotient_d9_three_blocks():
    t = build_theta(dihedral(9))
    v1 = [0, 3, 6]
    v2 = [1, 2, 4, 5, 7, 8]
    v3 = list(range(9, 18))
    q = quotient_matrix(t, [v1, v2, v3])
    assert q.tolist() == [[19, 6, 9], [3, 12, 9], [3, 6, 25]]


def test_quotient_of_singleton_blocks_is_Q():
    t = build_theta(cyclic(6))
    q = quotient_matrix(t, [[v] for v in range(6)])
    assert q.dtype == np.int64
    assert np.array_equal(q, build_Q(t))


def test_quotient_of_a_non_equitable_partition_names_the_two_vertices():
    t = build_theta(cyclic(6))
    with pytest.raises(ValueError, match=r"not equitable: vertex 1 .* vertex 0\b"):
        quotient_matrix(t, [[0, 1], [2, 3, 4, 5]])
    with pytest.raises(ValueError, match=r"not equitable: vertex 1 .* vertex 0\b"):
        quotient_spectrum(t, [[0, 1], [2, 3, 4, 5]])


@pytest.mark.parametrize("blocks", [
    [[0, 1], [1, 2, 3, 4, 5]],
    [[0, 1], [2, 3]],
    [[0, 1, 2, 3, 4, 5], []],
    [[0, 1, 2, 3, 4, 5, 6]],
    [],
], ids=["overlapping", "missing", "empty_block", "out_of_range", "no_blocks"])
def test_quotient_rejects_blocks_that_do_not_partition(blocks):
    t = build_theta(cyclic(6))
    with pytest.raises(ValueError, match="do not partition"):
        quotient_matrix(t, blocks)


def test_quotient_spectrum_contained_in_full():
    t = build_theta(cyclic(6))
    qspec = quotient_spectrum(t, [[0, 2, 3, 4], [1, 5]])
    full = eig_sym(build_Q(t))
    assert spectrum_contains(qspec, full, TOL)
    values = [v for v, _ in qspec.numeric_items()]
    assert values[0] == pytest.approx(6 + 2 * math.sqrt(3), abs=1e-9)
    assert values[-1] == pytest.approx(6 - 2 * math.sqrt(3), abs=1e-9)


def _order_class_blocks(g):
    class_of = g.order_classes.class_of
    return [np.flatnonzero(class_of == i) for i in range(len(g.order_classes.orders))]


def test_order_classes_are_equitable_with_the_group_side_quotient():
    """For every built-in group of order <= 200, the order classes C_i (order
    o_i) are an equitable partition with q_ij = |C_j| [gcd(o_i, o_j) is 1 or
    prime] - [i = j and o_i is 1 or prime], plus the row sum on the diagonal,
    and the quotient spectrum lies inside the full one. One flipped bit
    breaks it: under ``corrupting_builder`` every group of order >= 3 raises."""
    keys = group_keys(200, FAMILIES)
    assert len(keys) == 719
    for order, family, params, build, args in keys:
        g = build(*args)
        blocks = _order_class_blocks(g)
        orders = g.order_classes.orders.tolist()
        counts = np.array([
            [len(blocks[j]) * is_one_or_prime(math.gcd(oi, oj)) - (i == j and is_one_or_prime(oi))
             for j, oj in enumerate(orders)]
            for i, oi in enumerate(orders)
        ])
        t = build_theta(g)
        q = quotient_matrix(t, blocks)
        assert q.tolist() == (counts + np.diag(counts.sum(axis=1))).tolist(), (family, params)
        assert spectrum_contains(quotient_spectrum(t, blocks), eig_sym(build_Q(t)), TOL), (
            family, params)
        if order >= 3:
            with pytest.raises(ValueError, match="not equitable"):
                quotient_matrix(corrupting_builder(g), blocks)


# ---------------------------------------------------------------------------
# the spectrum from the order classes, against the dense oracle
# ---------------------------------------------------------------------------


def _assert_matches_the_dense_oracle(t):
    mine, dense = order_class_spectrum(t), eig_sym(build_Q(t))
    label = t.group.describe()
    assert mine.kind == dense.kind == "numeric", label
    assert [m for _, m in mine.entries] == [m for _, m in dense.entries], label
    assert [v for v, _ in mine.numeric_items()] == pytest.approx(
        [v for v, _ in dense.numeric_items()], abs=TOL), label


def test_order_class_spectrum_matches_the_dense_oracle_on_every_group_to_order_200():
    """Identical multiplicities and values within TOL on all 719 groups of
    order <= 200, built and with one flipped bit (``corrupting_builder``),
    whose twin classes are no longer the order classes."""
    keys = group_keys(200, FAMILIES)
    assert len(keys) == 719
    for order, _family, _params, build, args in keys:
        g = build(*args)
        _assert_matches_the_dense_oracle(build_theta(g))
        _assert_matches_the_dense_oracle(corrupting_builder(g))


@pytest.mark.parametrize(
    "g",
    [
        cyclic(1),
        cyclic(2),
        dihedral(1),
        dihedral(2),
        heisenberg(2),
        # orders 3 and 6 do not divide 4: a Lagrange violation
        from_orders(["e", "a", "b", "c"], [1, 3, 3, 6]),
        # a prime order near 2**61 next to a composite one
        from_orders(["e", "a", "b", "c", "d"], [1, 2**61 - 1, 2**61 - 1, 2, 2 * (2**61 - 1)]),
    ],
    ids=lambda g: f"{g.describe()}:{list(g.orders)}",
)
def test_order_class_spectrum_matches_the_dense_oracle_on_small_and_custom_groups(g):
    _assert_matches_the_dense_oracle(build_theta(g))


def test_order_class_spectrum_matches_the_dense_oracle_on_a_graph_that_is_not_its_groups():
    t = build_theta(cyclic(6))
    adj = t.adj.copy()
    adj[1, 5] = adj[5, 1] = True  # the two elements of order 6 are not adjacent in Θ(Z_6)
    u = from_adjacency(t.group, adj)
    _assert_matches_the_dense_oracle(u)
    assert order_class_spectrum(u).entries != order_class_spectrum(t).entries
    with pytest.raises(ValueError, match="symmetric 6 x 6"):
        from_adjacency(t.group, adj[:5, :5])


@pytest.mark.parametrize("g", [dihedral(580), dicyclic(540)], ids=lambda g: g.describe())
def test_close_distinct_eigenvalues_keep_their_own_multiplicity(g):
    # dihedral(580) has 870 and 870.0013219808811 once each; a window that
    # grows with ||Q||_F, about sqrt(n) times the spectral norm (3.3e-3 at
    # 1e-7 here), merges them into one value of multiplicity 2
    t = build_theta(g)
    q = build_Q(t)
    expected = np.linalg.eigvalsh(q).tolist()[::-1]
    for spec in (eig_sym(q), order_class_spectrum(t)):
        values = [v for v, m in spec.numeric_items() for _ in range(m)]
        assert values == pytest.approx(expected, abs=TOL)


# ---------------------------------------------------------------------------
# spectrum comparison
# ---------------------------------------------------------------------------


def test_spectrum_contains_multiplicity_overflow():
    full = eig_sym(np.diag([4.0, 4.0, 4.0, 4.0, 1.0]))
    sub5 = eig_sym(np.diag([4.0] * 5))
    sub4 = eig_sym(np.diag([4.0] * 4))
    assert not spectrum_contains(sub5, full, TOL)
    assert spectrum_contains(sub4, full, TOL)
    # nearest-first matching would pair 0.6 with 0.5 and leave 0.0 without a partner
    sub = SpectrumResult(((0.6, 1), (0.0, 1)), "numeric")
    assert spectrum_contains(sub, SpectrumResult(((1.5, 1), (0.5, 1)), "numeric"), 1.0)


def test_spectrum_contains_reflexive():
    s = eig_sym(build_Q(build_theta(cyclic(9))))
    assert spectrum_contains(s, s, TOL)


def test_spectra_equal_dimension_mismatch():
    a = eig_sym(np.diag([3.0]))
    b = eig_sym(np.diag([3.0, 3.0]))
    assert not spectra_equal(a, b, TOL)
