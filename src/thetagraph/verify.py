"""Theorem cross-check battery behind the `verify` subcommand.

Every check pits a computed graph quantity against the matching
group-theoretic statement over a fixed range of groups. A check fails
either by direct mismatch or by a CrossCheckError escaping from the
dual-criterion predicates. The battery accepts an alternative graph
builder so a deliberately corrupted build can demonstrate that failures
are actually caught.

A check is declared by ``@_check(title, visits)`` on its per-group body.
``visits()`` lists the groups the check sees, in its own order, as
(constructor, args) keys, and is called when ``run_suite`` plans a run.
The body ``check_*(result, t, build)`` gets a fresh ``result`` named
``title`` and the graph ``t`` of one group, and returns ``result`` with
that group's cases. ``run_suite`` builds each planned group once and hands
its graph to every check that visits it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import groups, properties as props, spectra
from .graph import ThetaGraph, build_theta, from_adjacency, prime_order_set
from .numtheory import factorize, is_prime
from .spectra import SPECTRUM_MATCH_TOL

__all__ = ["CheckResult", "SUITES", "corrupting_builder", "run_suite"]

Builder = Callable[[groups.GroupSpec], ThetaGraph]
Key = tuple[Callable[..., groups.GroupSpec], tuple]  # the group constructor(*args)

CYCLIC_PQ_ORDERS = (6, 10, 14, 15, 21, 33, 35)
CYCLIC_PRIME_POWER_ORDERS = (4, 8, 16, 32, 9, 27, 25, 49)
DIHEDRAL_PQ_ORDERS = (6, 10, 15, 21)
DIHEDRAL_PRIME_POWER_ORDERS = (4, 8, 9, 27, 25)
# the structural checks sweep every built-in group of order <= 200 but products
STRUCTURE_FAMILIES = tuple(f for f in groups.FAMILIES if f != "product")


@dataclass
class CheckResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, detail: str) -> None:
        self.cases += 1
        if not condition:
            self.failures.append(detail)


def corrupting_builder(g: groups.GroupSpec) -> ThetaGraph:
    """Build the graph, then flip one adjacency bit (negative control)."""
    t = build_theta(g)
    n = t.n_vertices
    if n < 2:
        return t
    adj = t.adj.copy()
    i, j = t.group.identity_index, (t.group.identity_index + 1) % n
    adj[i, j] = adj[j, i] = not adj[i, j]
    return from_adjacency(t.group, adj)


def _check(title: str, visits: Callable[[], list[Key]]):
    """Declare the decorated function the per-group body of the check ``title``."""

    def declare(body):
        body.title, body.visits = title, visits
        return body

    return declare


def _each(ctor: Callable[..., groups.GroupSpec], ns) -> list[Key]:
    """The keys of ctor(n) for each n in ns."""
    return [(ctor, (n,)) for n in ns]


def _structure_keys() -> list[Key]:
    return [key[3:] for key in groups.group_keys(200, STRUCTURE_FAMILIES)]


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def _family_spectra(r: CheckResult, t: ThetaGraph) -> CheckResult:
    family, n = t.group.family, t.group.params["n"]
    q = spectra.build_Q(t)
    numeric = spectra.eig_sym(q)
    closed = spectra.closed_form_spectrum(family, n)
    r.expect(
        spectra.spectra_equal(closed, numeric, SPECTRUM_MATCH_TOL),
        f"{family}({n}): closed form differs from the eigensolver",
    )
    trace = float(np.trace(q))
    r.expect(
        abs(numeric.trace() - trace) <= 1e-8 * max(trace, 1.0),
        f"{family}({n}): eigenvalue sum drifts from trace",
    )
    r.expect(
        trace == 2 * t.edge_count,
        f"{family}({n}): trace does not equal twice the edge count",
    )
    return r


@_check("spectra: cyclic, order pq", lambda: _each(groups.cyclic, CYCLIC_PQ_ORDERS))
def check_spectra_cyclic_pq(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    return _family_spectra(r, t)


@_check("spectra: cyclic, order p^m", lambda: _each(groups.cyclic, CYCLIC_PRIME_POWER_ORDERS))
def check_spectra_cyclic_prime_power(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    return _family_spectra(r, t)


@_check(
    "spectra: dihedral, orders pq and p^m",
    lambda: _each(groups.dihedral, DIHEDRAL_PQ_ORDERS + DIHEDRAL_PRIME_POWER_ORDERS),
)
def check_spectra_dihedral(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    return _family_spectra(r, t)


@_check("spectra: dihedral rotation block identity", lambda: _each(groups.dihedral, range(1, 31)))
def check_rotation_block_identity(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    """Q of the dihedral graph restricted to rotations equals the cyclic
    Q plus n on the diagonal, entrywise. The only check that builds a
    graph itself: the cyclic one it compares with."""
    n = t.group.params["n"]
    qd = spectra.build_Q(t)
    qc = spectra.build_Q(build(groups.cyclic(n)))
    expected = qc + n * np.eye(n, dtype=np.int64)
    r.expect(
        bool((qd[:n, :n] == expected).all()),
        f"dihedral({n}): rotation block differs from cyclic Q + n*I",
    )
    return r


def _theorem_quotient(t: ThetaGraph, family: str, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The theorem's equitable partition of the cyclic or dihedral graph
    and its closed-form quotient matrix.

    The rotations split into V1, the s rotations in S(G), and V2, the
    rest; the dihedral graph adds the reflections as V3.
    """
    in_s = prime_order_set(t)
    v1 = [k for k in range(n) if k in in_s]
    v2 = [k for k in range(n) if k not in in_s]
    s = len(v1)
    if family == "cyclic":
        return [v1, v2], [[n + s - 2, n - s], [s, s]]
    return [v1, v2, list(range(n, 2 * n))], [
        [2 * n + s - 2, n - s, n],
        [s, n + s, n],
        [s, n - s, 3 * n - 2],
    ]


@_check(
    "spectra: equitable partition quotients",
    lambda: _each(groups.cyclic, CYCLIC_PQ_ORDERS + CYCLIC_PRIME_POWER_ORDERS)
    + _each(groups.dihedral, DIHEDRAL_PQ_ORDERS + DIHEDRAL_PRIME_POWER_ORDERS),
)
def check_equitable_quotients(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    family, n = t.group.family, t.group.params["n"]
    blocks, expected = _theorem_quotient(t, family, n)
    try:
        q = spectra.quotient_matrix(t, blocks)
    except ValueError:  # the partition is not equitable
        q = None
    r.expect(q is not None, f"{family}({n}): theorem partition is not equitable")
    if q is None:
        return r
    r.expect(
        q.tolist() == expected,
        f"{family}({n}): quotient matrix differs from the closed form",
    )
    contained = spectra.spectrum_contains(
        spectra.quotient_spectrum(t, blocks), spectra.eig_sym(spectra.build_Q(t)),
        SPECTRUM_MATCH_TOL,
    )
    r.expect(contained, f"{family}({n}): quotient spectrum not inside full spectrum")
    return r


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


@_check("connectivity: cyclic kappa formulas", lambda: _each(groups.cyclic, range(2, 61)))
def check_connectivity_formulas(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    n = t.n_vertices
    conn = props.vertex_connectivity(t)
    if is_prime(n):
        if n <= 31:
            r.expect(conn.kappa == n - 1, f"cyclic({n}): kappa != n-1 for prime n")
    elif n >= 4:
        s = len(prime_order_set(t))
        r.expect(conn.kappa == s, f"cyclic({n}): kappa={conn.kappa} != |S|={s}")
        r.expect(
            conn.kappa <= int(t.degrees.min()),
            f"cyclic({n}): kappa exceeds the minimum degree",
        )
    shape = factorize(n)
    if len(shape) == 2 and all(e == 1 for _, e in shape):
        p, q = shape[0][0], shape[1][0]
        r.expect(conn.kappa == p + q - 1, f"cyclic({n}): kappa != p+q-1")
    if len(shape) == 1 and shape[0][1] >= 2:
        p = shape[0][0]
        r.expect(conn.kappa == p, f"cyclic({n}): kappa != p for n=p^m")
    return r


@_check("connectivity: dicyclic(3) exceeds |S|", lambda: _each(groups.dicyclic, (3,)))
def check_dicyclic_counterexample(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    conn = props.vertex_connectivity(t)
    s = len(prime_order_set(t))
    r.expect(conn.kappa == 6, f"dicyclic(3): kappa={conn.kappa}, expected 6")
    r.expect(s == 4, f"dicyclic(3): |S|={s}, expected 4")
    r.expect(
        props.open_problem_classify(t) == "kappa_exceeds_S",
        "dicyclic(3): classification is not kappa_exceeds_S",
    )
    return r


# ---------------------------------------------------------------------------
# structural theorems
# ---------------------------------------------------------------------------


@_check("structure: eulerian iff odd order with prime element orders", _structure_keys)
def check_eulerian(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    g = t.group
    value = props.is_eulerian(t)  # raises CrossCheckError on dual mismatch
    theorem = (g.size % 2 == 1) and all(is_prime(o) for o in g.order_classes.orders.tolist() if o != 1)
    r.expect(value == theorem, f"{g.describe()}: eulerian={value}, theorem={theorem}")
    return r


@_check(
    "structure: completeness iff no composite element order",
    lambda: _each(groups.cyclic, range(3, 101)) + _each(groups.dihedral, range(2, 51))
    + [(groups.elementary_abelian, pm) for pm in ((2, 3), (3, 2), (5, 2), (2, 5))]
    + _each(groups.heisenberg, (3,)),
)
def check_completeness(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    g = t.group
    value = props.is_complete(t)
    if g.family in ("cyclic", "dihedral"):
        n = g.params["n"]
        r.expect(value == is_prime(n), f"{g.describe()}: complete={value} but n prime={is_prime(n)}")
    else:
        r.expect(value, f"{g.describe()}: expected complete")
    return r


@_check(
    "structure: cyclic planar iff n=3 or n=2^i", lambda: _each(groups.cyclic, [*range(3, 65), 1, 2])
)
def check_planarity(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    n = t.n_vertices
    if n >= 3:
        value = props.is_planar(t)
        expected = n == 3 or (n & (n - 1)) == 0
        r.expect(value == expected, f"cyclic({n}): planar={value}, expected {expected}")
        return r
    r.expect(props.is_planar(t), f"cyclic({n}): degenerate case should be planar")
    r.expect(
        any(code == "small_group" for code, _ in t.group.warnings),
        f"cyclic({n}): missing small-group warning",
    )
    return r


@_check(
    "structure: cyclic pq hamiltonian iff p=2",
    lambda: _each(groups.cyclic, (6, 10, 14, 22, 15, 21, 33, 35)),
)
def check_hamiltonicity(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    n = t.n_vertices
    verdict = props.is_hamiltonian(t)
    if n % 2 == 0:
        r.expect(verdict.status == "yes", f"cyclic({n}): expected hamiltonian")
        r.expect(
            props.validate_cycle(t, verdict.cycle),
            f"cyclic({n}): certificate cycle failed validation",
        )
        return r
    r.expect(verdict.status == "no", f"cyclic({n}): expected non-hamiltonian")
    r.expect(
        verdict.method == "toughness_refuted" and verdict.witness_cut is not None,
        f"cyclic({n}): expected a toughness witness",
    )
    if verdict.witness_cut is not None:
        comps = props.components_after_removal(t, verdict.witness_cut)
        r.expect(
            comps > len(verdict.witness_cut),
            f"cyclic({n}): toughness witness failed re-validation",
        )
    return r


@_check("structure: connected, diameter <= 2, girth 3, domination 1", _structure_keys)
def check_universals(r: CheckResult, t: ThetaGraph, build: Builder) -> CheckResult:
    g = t.group
    r.expect(props.is_connected(t), f"{g.describe()}: not connected")
    d = props.diameter(t)
    r.expect(d <= 2, f"{g.describe()}: diameter {d} > 2")
    if g.size > 2:
        gt = props.girth(t)
        r.expect(gt == 3, f"{g.describe()}: girth {gt} != 3")
    number, witness = props.domination_number(t)
    r.expect(
        number == 1 and witness == frozenset({g.identity_index}),
        f"{g.describe()}: domination witness is not the identity",
    )
    return r


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

SUITES: dict[str, tuple] = {
    "spectra": (
        check_spectra_cyclic_pq,
        check_spectra_cyclic_prime_power,
        check_spectra_dihedral,
        check_rotation_block_identity,
    ),
    "equitable": (check_equitable_quotients,),
    "connectivity": (
        check_connectivity_formulas,
        check_dicyclic_counterexample,
    ),
    "properties": (
        check_eulerian,
        check_completeness,
        check_planarity,
        check_hamiltonicity,
    ),
    "universals": (check_universals,),
}
SUITES["all"] = tuple(fn for suite in ("spectra", "equitable", "connectivity", "properties", "universals") for fn in SUITES[suite])


def run_suite(suite: str, build: Builder = build_theta) -> list[CheckResult]:
    """Run the suite group-major: each group that some check visits is
    constructed and built once, handed to every check that visits it, and
    dropped before the next is built. Each check still reports its cases
    and failures in its own group order; a check that raises CrossCheckError
    reports its first raise in that order as one failed case."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    checks = SUITES[suite]
    bodies = [inspect.unwrap(fn) for fn in checks]
    plan: dict[Key, list[tuple[int, int]]] = {}  # group -> (check, position) of each visit
    outcomes = []  # per check and position: its CheckResult, or the text of its raise
    for c, body in enumerate(bodies):
        keys = body.visits()
        outcomes.append([None] * len(keys))
        for pos, key in enumerate(keys):
            plan.setdefault(key, []).append((c, pos))
    for (ctor, args), visitors in plan.items():
        t = build(ctor(*args))
        for c, pos in visitors:
            try:
                outcomes[c][pos] = checks[c](CheckResult(bodies[c].title), t, build)
            except props.CrossCheckError as exc:
                outcomes[c][pos] = f"cross-check raised: {exc}"
        del t  # at most one planned graph is alive at a time
    results = []
    for body, got in zip(bodies, outcomes):
        raised = [o for o in got if isinstance(o, str)]
        results.append(
            CheckResult(body.title, 1, raised[:1]) if raised
            else CheckResult(
                body.title, sum(o.cases for o in got), [f for o in got for f in o.failures]
            )
        )
    return results
