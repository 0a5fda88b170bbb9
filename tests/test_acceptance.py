"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else: eigenvalue comparison
1e-7, trace drift 1e-8 * trace, everything else exact.
"""

import math
import time

import numpy as np

from thetagraph import (
    build_Q,
    build_theta,
    closed_form_spectrum,
    components_after_removal,
    cyclic,
    dicyclic,
    dihedral,
    diameter,
    domination_number,
    eig_sym,
    elementary_abelian,
    girth,
    heisenberg,
    is_complete,
    is_connected,
    is_eulerian,
    is_hamiltonian,
    is_planar,
    open_problem_classify,
    prime_order_set,
    quotient_matrix,
    quotient_spectrum,
    spectra_equal,
    spectrum_contains,
    validate_cycle,
    vertex_connectivity,
)
from thetagraph.cli import main as cli_main
from thetagraph.numtheory import euler_phi, factorize, is_prime
from thetagraph.spectra import Surd

EIG_TOL = 1e-7
TRACE_REL_TOL = 1e-8

CYCLIC_PQ = (6, 10, 14, 15, 21, 33, 35)
CYCLIC_PM = (4, 8, 16, 32, 9, 27, 25, 49)
DIHEDRAL_PQ = (6, 10, 15, 21)
DIHEDRAL_PM = (4, 8, 9, 27, 25)


def _report(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"criterion {num} failed: " + "; ".join(failures[:5])


def _groups_up_to(max_order: int):
    for n in range(3, max_order + 1):
        yield cyclic(n)
    for n in range(2, max_order // 2 + 1):
        yield dihedral(n)
    for n in range(2, max_order // 4 + 1):
        yield dicyclic(n)
    for p in (2, 3, 5, 7, 11, 13):
        m = 2
        while p**m <= max_order:
            yield elementary_abelian(p, m)
            m += 1
    for p in (2, 3, 5):
        if p**3 <= max_order:
            yield heisenberg(p)


def _spectra_match(family, orders, failures):
    ctor = cyclic if family == "cyclic" else dihedral
    for n in orders:
        t = build_theta(ctor(n))
        closed = closed_form_spectrum(family, n)
        numeric = eig_sym(build_Q(t))
        if not spectra_equal(closed, numeric, EIG_TOL):
            failures.append(f"{family}({n}) spectra differ")


def test_criterion_01_spectra_cyclic_pq():
    failures: list[str] = []
    started = time.perf_counter()
    _spectra_match("cyclic", CYCLIC_PQ, failures)
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "cyclic pq spectra", failures)


def test_criterion_02_spectra_cyclic_prime_power():
    failures: list[str] = []
    _spectra_match("cyclic", CYCLIC_PM, failures)
    anchor = closed_form_spectrum("cyclic", 9).entries
    expected = ((Surd.of(12), 1), (Surd.of(7), 2), (Surd.of(3), 5), (Surd.of(1), 1))
    if anchor != expected:
        failures.append(f"Z9 anchor spectrum mismatch: {anchor}")
    _report(2, "cyclic p^m spectra", failures)


def test_criterion_03_spectra_dihedral():
    failures: list[str] = []
    _spectra_match("dihedral", DIHEDRAL_PQ + DIHEDRAL_PM, failures)
    for n in DIHEDRAL_PQ + DIHEDRAL_PM:
        t = build_theta(dihedral(n))
        numeric = eig_sym(build_Q(t))
        trace = 2 * t.edge_count
        if abs(numeric.trace() - trace) > TRACE_REL_TOL * trace:
            failures.append(f"dihedral({n}) trace drift")
    _report(3, "dihedral pq and p^m spectra", failures)


def test_criterion_04_rotation_block_identity():
    failures: list[str] = []
    for n in range(1, 31):
        qd = build_Q(build_theta(dihedral(n)))
        qc = build_Q(build_theta(cyclic(n)))
        if not np.array_equal(qd[:n, :n], qc + n * np.eye(n, dtype=np.int64)):
            failures.append(f"n={n} rotation block differs")
    _report(4, "dihedral rotation block = cyclic Q + nI", failures)


def test_criterion_05_vertex_connectivity_formulas():
    failures: list[str] = []
    started = time.perf_counter()
    for n in range(2, 32):
        if is_prime(n):
            kappa = vertex_connectivity(build_theta(cyclic(n))).kappa
            if kappa != n - 1:
                failures.append(f"prime n={n}: kappa {kappa} != {n - 1}")
    for n in range(4, 61):
        if is_prime(n):
            continue
        t = build_theta(cyclic(n))
        kappa = vertex_connectivity(t).kappa
        s = len(prime_order_set(t))
        if kappa != s:
            failures.append(f"composite n={n}: kappa {kappa} != |S| {s}")
        shape = factorize(n)
        if len(shape) == 2 and all(e == 1 for _, e in shape):
            p, q = shape[0][0], shape[1][0]
            if kappa != p + q - 1:
                failures.append(f"n={n}: kappa != p+q-1")
        if len(shape) == 1:
            if kappa != shape[0][0]:
                failures.append(f"n={n}: kappa != p")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(5, "cyclic kappa formulas (max-flow vs |S|)", failures)


def test_criterion_06_dicyclic_counterexample():
    failures: list[str] = []
    t = build_theta(dicyclic(3))
    kappa = vertex_connectivity(t).kappa
    s = len(prime_order_set(t))
    if kappa != 6:
        failures.append(f"kappa {kappa} != 6")
    if s != 4:
        failures.append(f"|S| {s} != 4")
    if open_problem_classify(t) != "kappa_exceeds_S":
        failures.append("classification is not kappa_exceeds_S")
    _report(6, "Dic3 has kappa 6 > |S| 4", failures)


def test_criterion_07_eulerian_iff():
    failures: list[str] = []
    for g in _groups_up_to(200):
        t = build_theta(g)
        try:
            value = is_eulerian(t)
        except Exception as exc:  # dual-criteria mismatch is a failure here
            failures.append(f"{g.describe()}: {exc}")
            continue
        theorem = g.size % 2 == 1 and all(
            is_prime(o) for i, o in enumerate(g.orders) if i != g.identity_index
        )
        if value != theorem:
            failures.append(f"{g.describe()}: eulerian={value} theorem={theorem}")
    positives = [cyclic(5), elementary_abelian(3, 2), heisenberg(3)]
    negatives = [cyclic(9)] + [dihedral(n) for n in range(2, 30)]
    for g in positives:
        if not is_eulerian(build_theta(g)):
            failures.append(f"{g.describe()} should be eulerian")
    for g in negatives:
        if is_eulerian(build_theta(g)):
            failures.append(f"{g.describe()} should not be eulerian")
    _report(7, "eulerian iff odd order and prime element orders", failures)


def test_criterion_08_completeness_iff():
    failures: list[str] = []
    for n in range(3, 101):
        if is_complete(build_theta(cyclic(n))) != is_prime(n):
            failures.append(f"cyclic({n})")
    for n in range(2, 51):
        if is_complete(build_theta(dihedral(n))) != is_prime(n):
            failures.append(f"dihedral({n})")
    for p, m in ((2, 2), (2, 5), (3, 3), (5, 2)):
        if not is_complete(build_theta(elementary_abelian(p, m))):
            failures.append(f"elementary_abelian({p},{m})")
    if not is_complete(build_theta(heisenberg(3))):
        failures.append("heisenberg(3)")
    _report(8, "complete iff no composite element order", failures)


def test_criterion_09_planarity_iff():
    failures: list[str] = []
    started = time.perf_counter()
    expected_planar = {3} | {2**i for i in range(2, 7)}
    for n in range(3, 65):
        value = is_planar(build_theta(cyclic(n)))
        if value != (n in expected_planar):
            failures.append(f"cyclic({n}): planar={value}")
    for n in (1, 2):
        t = build_theta(cyclic(n))
        if not is_planar(t):
            failures.append(f"cyclic({n}) degenerate should be planar")
        if not any(code == "small_group" for code, _ in t.group.warnings):
            failures.append(f"cyclic({n}) missing degenerate warning")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(9, "cyclic planarity is exactly {3} union powers of 2", failures)


def test_criterion_10_hamiltonicity_pq():
    failures: list[str] = []
    for n in (6, 10, 14, 22):
        t = build_theta(cyclic(n))
        verdict = is_hamiltonian(t)
        if verdict.status != "yes":
            failures.append(f"cyclic({n}): status {verdict.status}")
        elif not validate_cycle(t, verdict.cycle):
            failures.append(f"cyclic({n}): bad certificate")
    for n in (15, 21, 33, 35):
        t = build_theta(cyclic(n))
        verdict = is_hamiltonian(t)
        if verdict.status != "no" or verdict.method != "toughness_refuted":
            failures.append(f"cyclic({n}): expected toughness refutation")
            continue
        cut = verdict.witness_cut
        if components_after_removal(t, cut) <= len(cut):
            failures.append(f"cyclic({n}): witness does not refute 1-toughness")
    _report(10, "cyclic pq hamiltonian iff p=2, with witnesses", failures)


def test_criterion_11_structural_universals():
    failures: list[str] = []
    for g in _groups_up_to(200):
        t = build_theta(g)
        if not is_connected(t):
            failures.append(f"{g.describe()}: disconnected")
            continue
        if diameter(t) > 2:
            failures.append(f"{g.describe()}: diameter > 2")
        if g.size > 2 and girth(t) != 3:
            failures.append(f"{g.describe()}: girth != 3")
        number, witness = domination_number(t)
        if number != 1 or witness != frozenset({g.identity_index}):
            failures.append(f"{g.describe()}: domination witness wrong")
    _report(11, "connected, diameter <= 2, girth 3, domination 1", failures)


def test_criterion_12_equitable_machinery():
    failures: list[str] = []

    def check(t, blocks, expected_quotient, tag):
        try:
            q = quotient_matrix(t, blocks)
        except ValueError as exc:
            failures.append(f"{tag}: {exc}")
            return
        if q.tolist() != expected_quotient:
            failures.append(f"{tag}: quotient {q.tolist()} != {expected_quotient}")
        full = eig_sym(build_Q(t))
        if not spectrum_contains(quotient_spectrum(t, blocks), full, EIG_TOL):
            failures.append(f"{tag}: quotient spectrum escapes full spectrum")

    for n in CYCLIC_PQ:
        t = build_theta(cyclic(n))
        phi = euler_phi(n)
        v1 = [k for k in range(n) if math.gcd(k, n) != 1]
        v2 = [k for k in range(n) if math.gcd(k, n) == 1]
        check(t, [v1, v2], [[2 * n - phi - 2, phi], [n - phi, n - phi]], f"cyclic({n})")
    for n in CYCLIC_PM:
        t = build_theta(cyclic(n))
        p = factorize(n)[0][0]
        v1 = [k for k in range(n) if k == 0 or t.group.orders[k] == p]
        v2 = [k for k in range(n) if k not in set(v1)]
        check(t, [v1, v2], [[n + p - 2, n - p], [p, p]], f"cyclic({n}) p^m")
    for n in DIHEDRAL_PQ:
        t = build_theta(dihedral(n))
        phi = euler_phi(n)
        v1 = [k for k in range(n) if math.gcd(k, n) != 1]
        v2 = [k for k in range(n) if math.gcd(k, n) == 1]
        v3 = list(range(n, 2 * n))
        expected = [
            [3 * n - 2 - phi, phi, n],
            [n - phi, 2 * n - phi, n],
            [n - phi, phi, 3 * n - 2],
        ]
        check(t, [v1, v2, v3], expected, f"dihedral({n})")
    for n in DIHEDRAL_PM:
        t = build_theta(dihedral(n))
        p = factorize(n)[0][0]
        v1 = [k for k in range(n) if k == 0 or t.group.orders[k] == p]
        v2 = [k for k in range(n) if k not in set(v1)]
        v3 = list(range(n, 2 * n))
        expected = [
            [2 * (n - 1) + p, n - p, n],
            [p, n + p, n],
            [p, n - p, 3 * n - 2],
        ]
        check(t, [v1, v2, v3], expected, f"dihedral({n}) p^m")
    # the worked two-block example: Z_6 quotient is [[8,2],[4,4]]
    q = quotient_matrix(build_theta(cyclic(6)), [[0, 2, 3, 4], [1, 5]])
    if q.tolist() != [[8, 2], [4, 4]]:
        failures.append("Z6 printed quotient mismatch")
    _report(12, "equitable partitions and quotient containment", failures)


def test_criterion_13_negative_control(capsys):
    failures: list[str] = []
    code = cli_main(["verify", "--suite", "spectra", "--corrupt"])
    out = capsys.readouterr().out
    if code == 0:
        failures.append("corrupted verify exited 0")
    if "FAIL" not in out:
        failures.append("corrupted verify does not name a failing check")
    with capsys.disabled():
        _report(13, "corrupted fixture fails verify with nonzero exit", failures)
