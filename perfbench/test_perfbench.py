"""Tests of the benchmark itself: the checker's negative control, the
repeatability of traced counts and the compare verdicts.

    python3 -m pytest -q perfbench

They run the real workload ops, so they take a few minutes.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli():
    return run.load_program(ROOT)


def _op(name: str) -> workloads.Op:
    return next(op for ops in workloads.WORKLOADS.values() for op in ops if op.name == name)


def _fail_ratio(cli, op, expected, workdir) -> float:
    rounds, _ = run.measure(cli, (op,), expected, 0, 0, workdir)
    _, detail = run.end_to_end(rounds, [(1.0, 1.0)])
    return detail["fail_ratio"]


# ---------------------------------------------------------------------------
# negative control: a corrupted expectation makes the op fail
# ---------------------------------------------------------------------------


def _kappa_off_by_one(exp):
    exp["report"]["properties"]["vertex_connectivity"]["value"] += 1


def _eigenvalue_moved(exp):
    exp["report"]["spectrum"]["numeric"][0]["value_numeric"] += 1e-6


def _class_swapped(exp):
    row = next(r for r in exp["rows"] if r[-1] == "kappa_equals_S")
    row[-1] = "kappa_exceeds_S"


def _search_record_class_swapped(exp):
    record = next(r for r in exp["records"] if r["class"] == "kappa_equals_S")
    record["class"] = "kappa_exceeds_S"


@pytest.mark.parametrize("op_name, corrupt", [
    ("analyze dihedral(35)", _kappa_off_by_one),
    ("analyze dihedral(35)", _eigenvalue_moved),
    ("search max-order 64", _class_swapped),
    ("search max-order 64", _search_record_class_swapped),
])
def test_corrupted_expectation_fails_the_op(cli, tmp_path, op_name, corrupt):
    op = _op(op_name)
    assert _fail_ratio(cli, op, EXPECTED, tmp_path) == 0
    bad = copy.deepcopy(EXPECTED)
    corrupt(bad[op_name])
    assert _fail_ratio(cli, op, bad, tmp_path) > 0


def test_flipped_export_byte_fails_the_op(cli, tmp_path):
    op = _op("export dot product(cyclic:30,cyclic:35)")
    assert _fail_ratio(cli, op, EXPECTED, tmp_path) == 0
    # the recorded file with one byte flipped, as the expectation
    data = bytearray((tmp_path / op.out).read_bytes())
    data[len(data) // 2] ^= 0x01
    flipped = tmp_path / "flipped.dot"
    flipped.write_bytes(bytes(data))
    digest, size = workloads.file_digest(flipped)
    bad = copy.deepcopy(EXPECTED)
    bad[op.name] = {"sha256": digest, "bytes": size}
    assert _fail_ratio(cli, op, bad, tmp_path) > 0


def test_op_that_writes_nothing_fails(cli, tmp_path):
    """A correct file left by an earlier op does not pass an op that wrote none."""
    op = _op("export dot product(cyclic:30,cyclic:35)")
    assert _fail_ratio(cli, op, EXPECTED, tmp_path) == 0
    outcome = workloads.run_op(lambda argv: 0, op, tmp_path)
    assert workloads.check(outcome, EXPECTED, None)[0]

def test_invalid_certificates_fail(cli, tmp_path):
    """A cycle or cut that is not a certificate fails even when the rest of
    the report is unchanged."""
    op = _op("analyze dihedral(35)")
    outcome = workloads.run_op(cli.main, op, tmp_path)
    report = workloads.observe(outcome)["report"]
    exp = EXPECTED[op.name]
    adj = workloads.GraphCache().adjacency(op.name, exp["orders"])
    assert workloads.check_analyze(report, exp["report"], adj) == []
    cut = report["properties"]["vertex_connectivity"]["witness_cut"]
    report["properties"]["vertex_connectivity"]["witness_cut"] = [
        v for v in range(len(exp["orders"])) if v not in cut
    ][: len(cut)]
    assert workloads.check_analyze(report, exp["report"], adj)


def test_verify_failure_line_fails_the_op():
    exp = EXPECTED["verify all"]
    lines = [f"{name:<40}  cases={cases:<5d} {status}" for name, cases, status in exp["checks"]]
    op = _op("verify all")
    good = workloads.Outcome(op, 0, 1.0, "\n".join(lines + [exp["summary"]]) + "\n", None, None)
    assert workloads.check(good, EXPECTED, None)[0] == []
    lines[0] = lines[0].replace("PASS", "FAIL")
    bad = workloads.Outcome(op, 0, 1.0, "\n".join(lines + [exp["summary"]]) + "\n", None, None)
    assert workloads.check(bad, EXPECTED, None)[0]


# ---------------------------------------------------------------------------
# traced counts repeat exactly, and tracing leaves outputs unchanged
# ---------------------------------------------------------------------------


# every per-layer count; cli.output_bytes is left out because search's CSV
# carries the timing column ms, whose width varies from run to run
COUNTS = ("spectra.eig_sym_calls", "spectra.eig_dim", "spectra.eig_bytes_computed",
          "properties.vertex_connectivity_calls", "properties.is_complete_calls",
          "properties.hamiltonian_nodes", "properties.is_connected_calls",
          "graph.build_theta_calls", "graph.adj_cells", "graph.edges",
          "numtheory.primality_calls", "graph.export_bytes", "groups.elements",
          "verify.cases", "properties.kappa_calls_per_graph")

SEED_COUNTS = {
    "analyze": {"properties.vertex_connectivity_calls": 7, "graph.build_theta_calls": 4},
    "search": {"properties.vertex_connectivity_calls": 356, "spectra.eig_sym_calls": 0},
    "export": {"spectra.eig_sym_calls": 0, "graph.build_theta_calls": 2},
}


def _traced_run(cli, workload, seed, workdir):
    tracer = tracing.Tracer()
    rounds, _ = run.measure(cli, workloads.WORKLOADS[workload], EXPECTED, 0, seed, workdir, tracer)
    assert [rnd.traced for rnd in rounds] == [False, True]
    failures = [(r.op, r.problems) for rnd in rounds for r in rnd.records if r.problems]
    assert failures == [], "traced and untraced rounds must both pass the output check"
    values, _ = run.per_layer(rounds, tracer)
    return {key: values[key] for key in COUNTS}


@pytest.mark.parametrize("workload", sorted(SEED_COUNTS))
def test_traced_counts_repeat_exactly(cli, tmp_path, workload):
    first = _traced_run(cli, workload, 1, tmp_path)
    second = _traced_run(cli, workload, 2, tmp_path)
    assert first == second
    for key, value in SEED_COUNTS[workload].items():
        assert first[key] == value, key


def test_tracer_restores_every_binding(cli):
    import thetagraph.graph
    import thetagraph.verify

    before = (cli.main, cli.build_theta, thetagraph.graph.build_theta,
              thetagraph.verify.SUITES, thetagraph.verify.run_suite.__defaults__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.build_theta is not before[1]
        assert thetagraph.verify.run_suite.__wrapped__.__defaults__[0] is not before[2]
    finally:
        tracer.uninstall()
    after = (cli.main, cli.build_theta, thetagraph.graph.build_theta,
             thetagraph.verify.SUITES, thetagraph.verify.run_suite.__defaults__)
    assert after == before


# ---------------------------------------------------------------------------
# metrics and verdicts
# ---------------------------------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    many = {"a": [float(k) for k in range(1, 121, 2)], "b": [float(k) for k in range(2, 121, 2)]}
    assert run.tail(many) == (110.0, 100.0 * 110 / 120, 10)
    few = {"fast": [1.0, 1.2, 9.0], "slow": [5.0, 7.0, 6.0]}
    assert run.tail(few) == (6.0, None, 0)
    # 20 ops of a two-op mix: the slowest op, not whichever op meets the cut
    mix = {"dot": [0.05] * 10, "json": [3.5] * 10}
    assert run.tail(mix) == (3.5, None, 0)


def test_each_time_scales_with_its_own_slowdown():
    rounds = [run.Round(False, [run.Record("a", 0, 2.0, 4, [], 0, 2.0),
                                run.Record("b", 1, 6.0, 4, [], 0, 1.5)])]
    values, detail = run.end_to_end(rounds, [(0.5, 2.0), (0.9, 1.0), (0.3, 0.5)])
    assert detail["unscaled"]["latency_tail_s"] == 6.0
    assert values["latency_tail_s"] == pytest.approx(4.0)
    assert values["latency_p50_s"] == pytest.approx(2.5)
    assert values["setup_s"] == pytest.approx(0.6)
    assert values["items_per_s"] == pytest.approx(8 / 5.0)
    assert values["ok_ratio"] == 1.0


def test_slowdown_averages_the_reference_samples_around_each_op(cli, tmp_path):
    samples = iter([1.0, 3.0, 2.0])
    op = _op("export dot product(cyclic:30,cyclic:35)")
    rounds, setup = run.measure(cli, (op, op), EXPECTED, 0, 0, tmp_path,
                                reference=lambda: next(samples) * run.REFERENCE_NOMINAL_S)
    assert [r.slowdown for r in rounds[0].records] == pytest.approx([2.0, 2.5])
    assert setup == []


FAST = [8, 8.1, 7.9, 8.2, 8, 8.05, 7.95, 8.1, 8, 7.9]
STEADY = [10, 10.2, 9.9, 10.1, 10, 10.05, 9.95, 10.1, 10, 9.9]


@pytest.mark.parametrize("parent, change, better, failed, expected", [
    (STEADY, FAST, "lower", (0, 0), "improved"),
    (STEADY, [10.1, 10, 10, 10.05, 9.9, 10.1, 10, 10, 10.1, 9.95], "lower", (0, 0), "unchanged"),
    (STEADY, [13, 13.1, 12.9, 13.2, 13, 13.1, 12.9, 13.1, 13, 12.9], "lower", (0, 0), "worse"),
    ([10, 14, 7, 12, 9, 15, 6, 11, 8, 13],
     [11, 12, 10, 13, 9, 14, 8, 12, 10, 11], "lower", (0, 0), "unresolved"),
    ([1.0, 1.1, 0.9, 1.0], [1.3, 1.4, 1.2, 1.35], "higher", (0, 0), "improved"),
    # a gain does not count when the change fails more ops than the parent
    (STEADY, FAST, "lower", (0, 1), "worse (fails ops)"),
    (STEADY, FAST, "lower", (2, 2), "improved"),
])
def test_verdict(parent, change, better, failed, expected):
    assert compare.verdict(parent, change, better, 0.1, *failed)[0] == expected
