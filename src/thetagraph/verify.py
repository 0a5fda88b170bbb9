"""Theorem cross-check battery behind the `verify` subcommand.

Every check pits a computed graph quantity against the matching
group-theoretic statement over a fixed range of groups. A check fails
either by direct mismatch or by a CrossCheckError escaping from the
dual-criterion predicates. The battery accepts an alternative graph
builder so a deliberately corrupted build can demonstrate that failures
are actually caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import groups, properties as props, spectra
from .graph import ThetaGraph, build_theta, min_degree, prime_order_set
from .numtheory import euler_phi, factorize, is_prime
from .spectra import SPECTRUM_MATCH_TOL

__all__ = ["CheckResult", "SUITES", "corrupting_builder", "run_suite"]

Builder = Callable[[groups.GroupSpec], ThetaGraph]

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
    degrees = adj.sum(axis=1).astype(np.int64)
    return ThetaGraph(group=t.group, adj=adj, degrees=degrees, warnings=t.warnings)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def _check_family_spectra(result: CheckResult, family: str, orders, build: Builder) -> None:
    ctor = groups.cyclic if family == "cyclic" else groups.dihedral
    for n in orders:
        t = build(ctor(n))
        q = spectra.build_Q(t)
        numeric = spectra.eig_sym(q)
        closed = spectra.closed_form_spectrum(family, n)
        result.expect(
            spectra.spectra_equal(closed, numeric, SPECTRUM_MATCH_TOL),
            f"{family}({n}): closed form differs from the eigensolver",
        )
        trace = float(np.trace(q))
        result.expect(
            abs(numeric.trace() - trace) <= 1e-8 * max(trace, 1.0),
            f"{family}({n}): eigenvalue sum drifts from trace",
        )
        result.expect(
            trace == 2 * t.edge_count,
            f"{family}({n}): trace does not equal twice the edge count",
        )


def check_spectra_cyclic_pq(build: Builder) -> CheckResult:
    r = CheckResult("spectra: cyclic, order pq")
    _check_family_spectra(r, "cyclic", CYCLIC_PQ_ORDERS, build)
    return r


def check_spectra_cyclic_prime_power(build: Builder) -> CheckResult:
    r = CheckResult("spectra: cyclic, order p^m")
    _check_family_spectra(r, "cyclic", CYCLIC_PRIME_POWER_ORDERS, build)
    return r


def check_spectra_dihedral(build: Builder) -> CheckResult:
    r = CheckResult("spectra: dihedral, orders pq and p^m")
    _check_family_spectra(
        r, "dihedral", DIHEDRAL_PQ_ORDERS + DIHEDRAL_PRIME_POWER_ORDERS, build
    )
    return r


def check_rotation_block_identity(build: Builder) -> CheckResult:
    """Q of the dihedral graph restricted to rotations equals the cyclic
    Q plus n on the diagonal, entrywise."""
    r = CheckResult("spectra: dihedral rotation block identity")
    for n in range(1, 31):
        qd = spectra.build_Q(build(groups.dihedral(n)))
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

    The rotations split into V1 (the identity and the elements of order p
    for n = p^m, the non-generators for n = pq) and V2, the rest; the
    dihedral graph adds the reflections as V3.
    """
    shape = factorize(n).factors
    if len(shape) == 1:
        p = shape[0][0]
        v1 = [k for k in range(n) if k == 0 or t.group.orders[k] == p]
    else:
        v1 = [k for k in range(n) if math.gcd(k, n) != 1]
    in_v1 = set(v1)
    v2 = [k for k in range(n) if k not in in_v1]
    phi = euler_phi(n)
    if family == "cyclic":
        if len(shape) == 1:
            return [v1, v2], [[n + p - 2, n - p], [p, p]]
        return [v1, v2], [[2 * n - phi - 2, phi], [n - phi, n - phi]]
    v3 = list(range(n, 2 * n))
    if len(shape) == 1:
        return [v1, v2, v3], [[2 * (n - 1) + p, n - p, n], [p, n + p, n], [p, n - p, 3 * n - 2]]
    return [v1, v2, v3], [
        [3 * n - 2 - phi, phi, n],
        [n - phi, 2 * n - phi, n],
        [n - phi, phi, 3 * n - 2],
    ]


def check_equitable_quotients(build: Builder) -> CheckResult:
    r = CheckResult("spectra: equitable partition quotients")
    for family, ctor, orders in (
        ("cyclic", groups.cyclic, CYCLIC_PQ_ORDERS + CYCLIC_PRIME_POWER_ORDERS),
        ("dihedral", groups.dihedral, DIHEDRAL_PQ_ORDERS + DIHEDRAL_PRIME_POWER_ORDERS),
    ):
        for n in orders:
            t = build(ctor(n))
            blocks, expected = _theorem_quotient(t, family, n)
            ok, _ = spectra.is_equitable(t, blocks)
            r.expect(ok, f"{family}({n}): theorem partition is not equitable")
            if not ok:
                continue
            ep = spectra.quotient_matrix(t, blocks)
            r.expect(
                ep.quotient.tolist() == expected,
                f"{family}({n}): quotient matrix differs from the closed form",
            )
            contained = spectra.spectrum_contains(
                spectra.quotient_spectrum(ep), spectra.eig_sym(spectra.build_Q(t)), SPECTRUM_MATCH_TOL
            )
            r.expect(contained, f"{family}({n}): quotient spectrum not inside full spectrum")
    return r


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def check_connectivity_formulas(build: Builder) -> CheckResult:
    r = CheckResult("connectivity: cyclic kappa formulas")
    for n in range(2, 61):
        t = build(groups.cyclic(n))
        conn = props.vertex_connectivity(t)
        if is_prime(n):
            if n <= 31:
                r.expect(conn.kappa == n - 1, f"cyclic({n}): kappa != n-1 for prime n")
        elif n >= 4:
            s = prime_order_set(t).size
            r.expect(conn.kappa == s, f"cyclic({n}): kappa={conn.kappa} != |S|={s}")
            r.expect(
                conn.kappa <= min_degree(t),
                f"cyclic({n}): kappa exceeds the minimum degree",
            )
        shape = factorize(n).factors if n >= 2 else []
        if len(shape) == 2 and all(e == 1 for _, e in shape):
            p, q = shape[0][0], shape[1][0]
            r.expect(conn.kappa == p + q - 1, f"cyclic({n}): kappa != p+q-1")
        if len(shape) == 1 and shape[0][1] >= 2:
            p = shape[0][0]
            r.expect(conn.kappa == p, f"cyclic({n}): kappa != p for n=p^m")
    return r


def check_dicyclic_counterexample(build: Builder) -> CheckResult:
    r = CheckResult("connectivity: dicyclic(3) exceeds |S|")
    t = build(groups.dicyclic(3))
    conn = props.vertex_connectivity(t)
    s = prime_order_set(t).size
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


def check_eulerian(build: Builder) -> CheckResult:
    r = CheckResult("structure: eulerian iff odd order with prime element orders")
    for _, _, _, g in groups.enumerate_groups(200, STRUCTURE_FAMILIES):
        t = build(g)
        value = props.is_eulerian(t)  # raises CrossCheckError on dual mismatch
        theorem = (g.size % 2 == 1) and all(
            is_prime(o) for i, o in enumerate(g.orders) if i != g.identity_index
        )
        r.expect(value == theorem, f"{g.describe()}: eulerian={value}, theorem={theorem}")
    return r


def check_completeness(build: Builder) -> CheckResult:
    r = CheckResult("structure: completeness iff no composite element order")
    for n in range(3, 101):
        value = props.is_complete(build(groups.cyclic(n)))
        r.expect(
            value == is_prime(n),
            f"cyclic({n}): complete={value} but n prime={is_prime(n)}",
        )
    for n in range(2, 51):
        value = props.is_complete(build(groups.dihedral(n)))
        r.expect(
            value == is_prime(n),
            f"dihedral({n}): complete={value} but n prime={is_prime(n)}",
        )
    for p, m in ((2, 3), (3, 2), (5, 2), (2, 5)):
        r.expect(
            props.is_complete(build(groups.elementary_abelian(p, m))),
            f"elementary_abelian({p},{m}): expected complete",
        )
    r.expect(props.is_complete(build(groups.heisenberg(3))), "heisenberg(3): expected complete")
    return r


def check_planarity(build: Builder) -> CheckResult:
    r = CheckResult("structure: cyclic planar iff n=3 or n=2^i")
    for n in range(3, 65):
        value = props.is_planar(build(groups.cyclic(n)))
        expected = n == 3 or (n & (n - 1)) == 0
        r.expect(value == expected, f"cyclic({n}): planar={value}, expected {expected}")
    for n in (1, 2):
        t = build(groups.cyclic(n))
        r.expect(props.is_planar(t), f"cyclic({n}): degenerate case should be planar")
        r.expect(
            any(code == "small_group" for code, _ in t.warnings),
            f"cyclic({n}): missing small-group warning",
        )
    return r


def check_hamiltonicity(build: Builder) -> CheckResult:
    r = CheckResult("structure: cyclic pq hamiltonian iff p=2")
    for n in (6, 10, 14, 22):
        t = build(groups.cyclic(n))
        verdict = props.is_hamiltonian(t)
        r.expect(verdict.status == "yes", f"cyclic({n}): expected hamiltonian")
        r.expect(
            props.validate_cycle(t, verdict.cycle),
            f"cyclic({n}): certificate cycle failed validation",
        )
    for n in (15, 21, 33, 35):
        t = build(groups.cyclic(n))
        verdict = props.is_hamiltonian(t)
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


def check_universals(build: Builder) -> CheckResult:
    r = CheckResult("structure: connected, diameter <= 2, girth 3, domination 1")
    for _, _, _, g in groups.enumerate_groups(200, STRUCTURE_FAMILIES):
        t = build(g)
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
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for fn in SUITES[suite]:
        try:
            results.append(fn(build))
        except props.CrossCheckError as exc:
            failed = CheckResult(name=fn.__name__.removeprefix("check_").replace("_", " "))
            failed.expect(False, f"cross-check raised: {exc}")
            results.append(failed)
    return results
