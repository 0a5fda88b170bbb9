import argparse
import csv
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import thetagraph.cli
import thetagraph.properties
import thetagraph.spectra
from thetagraph import FAMILIES, build_theta, cyclic, export_dot, export_json, prime_order_set, validate_cycle
from thetagraph.analysis import analyze_group, spectrum_section
from thetagraph.cli import SEARCH_CSV_HEADER, _emit, main, parse_selector
from thetagraph.groups import TwinQuotient, enumerate_groups, group_keys
from thetagraph.numtheory import is_prime
from thetagraph.properties import (
    ConnectivityResult,
    CrossCheckError,
    components_after_removal,
    is_complete,
    open_problem_classify,
    vertex_connectivity,
)
from thetagraph.spectra import order_class_spectrum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_cyclic_6(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--cyclic", "6", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["report_version"] == 1
    props = report["properties"]
    assert props["hamiltonian"]["status"] == "yes"
    assert props["diameter"]["value"] == 2
    # kappa agrees with |S(Z_6)| = |{0,2,3,4}| = 4, per the composite-order rule
    assert props["vertex_connectivity"]["value"] == 4
    assert props["prime_order_set"]["size"] == 4
    assert props["open_problem_class"] == "kappa_equals_S"
    assert report["spectrum"]["match"] is True


def test_analyze_witnesses_revalidate_against_fresh_graph(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--cyclic", "15", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    t = build_theta(cyclic(15))
    ham = report["properties"]["hamiltonian"]
    assert ham["status"] == "no" and ham["method"] == "toughness_refuted"
    cut = set(ham["witness_cut"])
    assert components_after_removal(t, cut) > len(cut)
    kappa_cut = set(report["properties"]["vertex_connectivity"]["witness_cut"])
    assert components_after_removal(t, kappa_cut) >= 2


def test_analyze_dicyclic_3(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--dicyclic", "3", "--no-timestamp")
    report = json.loads(out)
    assert code == 0
    assert report["properties"]["open_problem_class"] == "kappa_exceeds_S"
    assert report["properties"]["vertex_connectivity"]["value"] == 6
    assert report["properties"]["prime_order_set"]["size"] == 4


def test_analyze_cyclic_1_warns(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--cyclic", "1", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert any(w["code"] == "small_group" for w in report["warnings"])


def _selector(family, args):
    """The selector flags of a built-in group from ``group_keys``."""
    if family == "product":  # of two cyclic groups
        return ["--product", *(f"cyclic:{n}" for n in args)]
    return ["--elem-abelian" if family == "elementary_abelian" else f"--{family}", *map(str, args)]


def test_analyze_and_spectrum_write_what_json_dumps_writes_on_every_group_to_order_200(capsys):
    for _, family, _, build, args in group_keys(200, FAMILIES):
        g = build(*args)
        docs = {"analyze": analyze_group(g, timestamp=False), "spectrum": spectrum_section(build_theta(g))}
        for command, doc in docs.items():
            flags = ["--no-timestamp"] if command == "analyze" else []
            assert main([command, *flags, *_selector(family, args)]) == 0
            assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n", (command, g.describe())


def test_analyze_deterministic_without_timestamp(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--dihedral", "6", "--no-timestamp")
    _, out2, _ = run_cli(capsys, "analyze", "--dihedral", "6", "--no-timestamp")
    assert out1 == out2


def test_analyze_timestamp_present_by_default(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--cyclic", "3")
    assert "generated_at" in json.loads(out)


def test_analyze_requires_exactly_one_selector(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1 and "selector" in err
    code, _, err = run_cli(capsys, "analyze", "--cyclic", "3", "--dihedral", "4")
    assert code == 1


def _z4_z6_list(tmp_path) -> Path:
    """Write the order list of Z_4 x|_3 Z_6: orders 1, 2 x5, 3 x2, 4 x2, 6 x10, 12 x4."""
    orders = [1] + [2] * 5 + [3] * 2 + [4] * 2 + [6] * 10 + [12] * 4
    path = tmp_path / "z4_z6.json"
    path.write_text(json.dumps({"labels": list(range(len(orders))), "orders": orders}))
    return path


def test_analyze_rejects_a_negative_budget_before_building_the_group(tmp_path, capsys, monkeypatch):
    path = _z4_z6_list(tmp_path)
    monkeypatch.setattr(thetagraph.cli, "_group_from_args", lambda args: pytest.fail("group built"))
    code, out, err = run_cli(capsys, "analyze", "--custom", str(path), "--budget", "-5")
    assert code == 1 and out == ""
    assert "--budget must be at least 0" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "analyze", "--custom", str(path), "--budget", "0", "--no-timestamp")
    assert code == 0 and json.loads(out)["properties"]["hamiltonian"]["nodes_explored"] <= 1


def test_the_exact_search_of_analyze_reads_no_dense_view(tmp_path, capsys, monkeypatch):
    # Z_4 x|_3 Z_6 meets neither Ore's bound nor a toughness cut, so analyze runs the search
    def refuse(q):
        raise AssertionError("the dense adjacency was built")

    monkeypatch.setattr(TwinQuotient, "expansion", property(refuse))
    code, out, _ = run_cli(capsys, "analyze", "--custom", str(_z4_z6_list(tmp_path)), "--budget", "1000",
                           "--no-timestamp")
    verdict = json.loads(out)["properties"]["hamiltonian"]
    assert code == 0
    assert (verdict["status"], verdict["nodes_explored"], verdict["method"]) == ("inconclusive", 1001, "exact_search")


def test_analyze_properties_of_2048_order_classes_stay_as_pinned(tmp_path, capsys):
    # every element its own order: 1, 2, 3, 5, 7 and 6m for m <= 2043, so k = n = 2048 and H, the
    # 2043 composite classes, is independent. The spectrum is left out, as its floats come from LAPACK
    orders = [1, 2, 3, 5, 7] + [6 * m for m in range(1, 2044)]
    path = tmp_path / "k2048.json"
    path.write_text(json.dumps({"labels": [str(k) for k in range(len(orders))], "orders": orders}))
    code, out, _ = run_cli(capsys, "analyze", "--no-timestamp", "--custom", str(path))
    s = [0, 1, 2, 3, 4]
    assert code == 0 and json.loads(out)["properties"] == {
        "connected": {"value": True, "method": "bfs"},
        "diameter": {"value": 2, "method": "bfs"},
        "girth": {"value": 3, "finite": True, "method": "bfs"},
        "eulerian": {"value": False, "method": "dual_criteria"},
        "complete": {"value": False, "method": "dual_criteria"},
        "planar": {"value": False, "method": "euler_bound"},
        "hamiltonian": {"status": "no", "method": "toughness_refuted", "cycle": None, "nodes_explored": 0,
                        "witness_cut": s},
        "domination_number": {"value": 1, "witness": [0], "method": "identity_universal"},
        "vertex_connectivity": {"value": 5, "method": "max_flow", "witness_cut": s},
        "prime_order_set": {"size": 5, "indices": s},
        "open_problem_class": "kappa_equals_S",
    }



# ---------------------------------------------------------------------------
# fault injection: each guard below is reached by no honest input, so a step under it is made to lie
# ---------------------------------------------------------------------------


def _analyze_fails_its_cross_check(capsys, argv, message):
    code, out, err = run_cli(capsys, "analyze", "--no-timestamp", *argv)
    assert code == 2 and out == ""
    assert err == f"theorem cross-check FAILED: {message}\n"


def test_a_cut_that_fails_its_re_validation_exits_2(capsys, monkeypatch):
    assert run_cli(capsys, "analyze", "--no-timestamp", "--dihedral", "6")[0] == 0
    monkeypatch.setattr(thetagraph.properties, "components_after_removal", lambda t, removed: 1)
    _analyze_fails_its_cross_check(capsys, ["--dihedral", "6"], "minimum cut witness failed re-validation")


def test_a_flow_that_overstates_kappa_past_the_minimum_degree_exits_2(tmp_path, capsys, monkeypatch):
    # no built-in group of order <= 300 has a kappa that only the flow finds: where H is connected
    # (Dic_n, n odd), an independent class's degree gives kappa too. This order list is no group
    # (4, 9, 12 and 18 do not divide 6), but analyze passes every cross-check on it. Its classes are
    # single elements, U = {1, 2} and H is the path 18 - 4 - 9 - 12, so kappa = 2 + 1 = 3 comes from
    # the flow, and it is the minimum degree
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"labels": list(range(6)), "orders": [1, 2, 4, 9, 12, 18]}))
    code, out, _ = run_cli(capsys, "analyze", "--no-timestamp", "--custom", str(path))
    assert code == 0 and json.loads(out)["properties"]["vertex_connectivity"]["value"] == 3
    min_cut = thetagraph.properties._min_cut
    monkeypatch.setattr(thetagraph.properties, "_min_cut", lambda *a: (lambda v, r: (v + 1, r))(*min_cut(*a)))
    _analyze_fails_its_cross_check(capsys, ["--custom", str(path)], "kappa exceeds the minimum degree")


def test_an_exact_search_that_returns_a_broken_cycle_exits_2(tmp_path, capsys, monkeypatch):
    # Z_4 x|_3 Z_6 reaches the exact search; its vertices in index order are no cycle, as
    # the ten elements of order 6 (indices 10 to 19) are pairwise non-adjacent
    monkeypatch.setattr(thetagraph.properties, "_hamiltonian_search",
                        lambda t, budget: ("yes", tuple(range(t.n_vertices)), 1))
    _analyze_fails_its_cross_check(capsys, ["--custom", str(_z4_z6_list(tmp_path))],
                                   "search produced an invalid Hamiltonian cycle")


def test_an_ore_cycle_that_fails_its_validation_exits_2(capsys, monkeypatch):
    assert run_cli(capsys, "analyze", "--no-timestamp", "--dihedral", "35")[0] == 0
    monkeypatch.setattr(thetagraph.properties, "validate_cycle", lambda t, cycle: False)
    _analyze_fails_its_cross_check(capsys, ["--dihedral", "35"], "Ore construction produced an invalid cycle")


def test_a_kappa_below_the_prime_order_set_exits_2(capsys, monkeypatch):
    # every member of S(G) is universal, so only a connectivity that understates kappa reports fewer
    monkeypatch.setattr(thetagraph.properties, "vertex_connectivity",
                        lambda t: ConnectivityResult(len(prime_order_set(t)) - 1, None, "max_flow"))
    _analyze_fails_its_cross_check(
        capsys, ["--dihedral", "6"],
        "kappa=9 < |S|=10 on dihedral(6); impossible since S(G) consists of universal vertices",
    )

def test_analyze_hamiltonian_cycle_revalidates(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--cyclic", "10", "--no-timestamp")
    report = json.loads(out)
    cycle = report["properties"]["hamiltonian"]["cycle"]
    assert validate_cycle(build_theta(cyclic(10)), tuple(cycle))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_cyclic_9(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--cyclic", "9")
    assert code == 0
    section = json.loads(out)
    assert section["match"] is True
    closed = {e["value_display"]: e["multiplicity"] for e in section["closed_form"]}
    assert closed == {"12": 1, "7": 2, "3": 5, "1": 1}


def test_spectrum_dihedral_6(capsys):
    _, out, _ = run_cli(capsys, "spectrum", "--dihedral", "6")
    section = json.loads(out)
    assert section["match"] is True
    displays = [e["value_display"] for e in section["closed_form"]]
    assert displays == ["15+3*sqrt(5)", "10", "15-3*sqrt(5)"]
    assert section["closed_form"][1]["multiplicity"] == 10


def test_spectrum_cyclic_30_unsupported(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--cyclic", "30")
    assert code == 0
    section = json.loads(out)
    assert section["closed_form_supported"] is False
    assert section["closed_form"] is None
    assert section["match"] is None
    assert len(section["numeric"]) > 0


@pytest.mark.parametrize(
    "argv, k",
    [
        (("analyze", "--cyclic", "4096", "--no-timestamp"), 13),  # one class per divisor of 2^12
        (("spectrum", "--elem-abelian", "2", "12"), 2),
    ],
    ids=["analyze-cyclic-4096", "spectrum-elem-abelian-2-12"],
)
def test_spectra_at_the_element_cap_never_build_the_dense_Q(capsys, monkeypatch, argv, k):
    def refuse(t):
        raise AssertionError("the dense Q was built")

    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(thetagraph.spectra, "build_Q", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or eigvalsh(m))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    numeric = (report["spectrum"] if argv[0] == "analyze" else report)["numeric"]
    assert sum(e["multiplicity"] for e in numeric) == 4096
    assert shapes and all(rows <= k and cols <= k for rows, cols in shapes), shapes


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_dot_triangle(capsys):
    code, out, _ = run_cli(capsys, "export", "--cyclic", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph theta {")
    assert out.count(" -- ") == 3


def test_export_json_z6(capsys):
    _, out, _ = run_cli(capsys, "export", "--cyclic", "6", "--format", "json")
    assert len(json.loads(out)["edges"]) == 14


def test_export_custom_roundtrips_labels(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"labels": ["e", "g1", "g2"], "orders": [1, 3, 3]}))
    code, out, _ = run_cli(capsys, "export", "--custom", str(path), "--format", "dot")
    assert code == 0
    for label in ("e", "g1", "g2"):
        assert f'"{label}"' in out


def test_export_rejects_bad_custom_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"labels": ["a"]}')
    code, _, err = run_cli(capsys, "export", "--custom", str(path), "--format", "dot")
    assert code == 1 and "custom" in err


@pytest.mark.parametrize(
    "selector",
    [("--cyclic", "1000000000"), ("--heisenberg", "1009"), ("--product", "cyclic:200", "cyclic:200")],
)
def test_export_refuses_groups_above_max_elements_at_once(capsys, selector):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "export", "--format", "json", *selector)
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out == ""
    assert "MAX_ELEMENTS" in err


def test_export_logs_one_debug_line_and_leaves_output_unchanged(monkeypatch, capsys, caplog):
    argv = ("export", "--format", "json", "--dicyclic", "3")
    monkeypatch.delenv("THETA_LOG", raising=False)
    caplog.set_level(logging.DEBUG)
    _, plain, _ = run_cli(capsys, *argv)
    assert not [r for r in caplog.records if r.name == "thetagraph"]
    monkeypatch.setenv("THETA_LOG", "debug")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == plain
    records = [r for r in caplog.records if r.name == "thetagraph"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    message = records[0].getMessage()
    assert message.startswith(f"export json: 12 vertices, 50 edges, {len(plain.encode())} bytes, ")
    assert message.endswith(" s serialising")


NON_ASCII_GROUP = {
    "labels": ["\u00e9", 'a"b', "\\x", "\u20ac", "\U0001f600", "\u03b6"],
    "orders": [1, 2, 3, 6, 2, 3],
}


def _child_env() -> dict:
    """The environment for a CLI run in a fresh interpreter that imports this package."""
    src = str(Path(thetagraph.cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("selector", ["cyclic:1", "cyclic:2", "dicyclic:3", "heisenberg:5", "custom"])
def test_export_writes_the_export_text_to_stdout_and_to_a_file(tmp_path, capsysbinary, selector, fmt):
    if selector == "custom":
        path = tmp_path / "group.json"
        path.write_text(json.dumps(NON_ASCII_GROUP), encoding="utf-8")
        selector = f"custom:{path}"
    want = {"json": export_json, "dot": export_dot}[fmt](build_theta(parse_selector(selector)))
    name, _, value = selector.partition(":")
    argv = ["export", "--format", fmt, f"--{name}", value]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == want.encode("utf-8")
    out = tmp_path / "graph.out"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")


# VmHWM is the child's own peak in KiB; ru_maxrss would also count the resident
# size that the forking process (here pytest) had when it forked the child
PEAK_RSS_SCRIPT = """
import sys
from thetagraph.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    peak_kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, peak_kib, file=sys.stderr)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc/self/status")
@pytest.mark.parametrize("out", [[], ["--out", os.devnull]], ids=["stdout", "file"])
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_export_at_max_elements_streams_without_holding_the_text(fmt, out):
    # K_4096 has 8.4 million edges, about 300 MB of text; only one row is held at a time
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, "export", "--format", fmt, "--elem-abelian", "2", "12", *out],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=_child_env(), check=True,
    )
    code, peak_kib = proc.stderr.split()
    assert code == "0"
    assert int(peak_kib) < 256 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc/self/status")
def test_debug_export_streams_like_the_plain_one():
    # the debug line counts the pieces as they are written, so none is held for it
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, "export", "--format", "json", "--elem-abelian", "2", "12"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=dict(_child_env(), THETA_LOG="debug"), check=True,
    )
    log_line, result = proc.stderr.splitlines()
    assert log_line.startswith("DEBUG thetagraph: export json: 4096 vertices, 8386560 edges, ")
    code, peak_kib = result.split()
    assert code == "0"
    assert int(peak_kib) < 150 * 1024


@pytest.mark.parametrize(
    "argv, head",
    [
        (["export", "--format", "json", "--heisenberg", "11"], 20),
        (["export", "--format", "dot", "--heisenberg", "11"], 20),
        (["search", "--max-order", "200"], 20),
        # verify writes its report in one piece after its checks, so only a reader that
        # has already left finds the pipe closed
        (["verify", "--suite", "all"], 0),
    ],
    ids=["export-json", "export-dot", "search", "verify"],
)
def test_output_into_a_pipe_closed_early_exits_0_quietly(argv, head):
    # leaving the block closes both pipes and waits, so no pipe is left to the collector
    with subprocess.Popen(
        [sys.executable, "-m", "thetagraph.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    ) as proc:
        assert len(proc.stdout.read(head)) == head
        proc.stdout.close()  # as ``| head -c N`` does, long before the whole output is written
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


FD_COUNT_SCRIPT = """
import os, sys
from thetagraph.cli import main
before = len(os.listdir("/proc/self/fd"))
code = main(sys.argv[1:])
print(code, before, len(os.listdir("/proc/self/fd")), file=sys.stderr)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="open descriptors are listed in /proc/self/fd")
def test_output_into_a_closed_pipe_leaves_no_descriptor_open():
    # stdout goes to devnull once the reader has left; the descriptor opened for it is closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", FD_COUNT_SCRIPT, "verify", "--suite", "connectivity"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_child_env(), check=True,
        )
    finally:
        os.close(write_end)
    code, before, after = proc.stderr.split()
    assert code == "0" and after == before


def _semiprime_list(path, count):
    """Write a custom group file: the identity and the ``count`` smallest products
    p * q of primes p < q, each its own order class."""
    limit = 8 * count
    products = sorted(p * q for p in range(2, limit) if p * p < limit and is_prime(p)
                      for q in range(p + 1, limit // p + 1) if is_prime(q))
    assert len(products) >= count
    orders = [1] + products[:count]
    path.write_text(json.dumps({"labels": [str(k) for k in range(len(orders))], "orders": orders}))


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc/self/status")
def test_export_of_4096_order_classes_builds_their_adjacency_in_bounded_memory(tmp_path):
    # k = 4096: the whole k x k gcd table and its np.unique temporaries took 816 MB;
    # made in blocks of rows, the export peaks near 130 MB
    path = tmp_path / "semiprimes.json"
    _semiprime_list(path, 4095)
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, "export", "--format", "dot", "--custom", str(path),
         "--out", os.devnull],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=_child_env(), check=True,
    )
    code, peak_kib = proc.stderr.split()
    assert code == "0"
    assert int(peak_kib) < 256 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc/self/status")
def test_analyze_of_4096_elements_never_holds_an_n_by_n_matrix():
    # Ore's test and the cycle read the classes: the dense view of Z_4096 is 16 MiB, and
    # making it for them took the command to an 82 MiB peak
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, "analyze", "--no-timestamp", "--cyclic", "4096"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=_child_env(), check=True,
    )
    code, peak_kib = proc.stderr.split()
    assert code == "0"
    assert int(peak_kib) < 56 * 1024


def test_spectrum_export_and_search_never_build_the_dense_adjacency(tmp_path, capsys, monkeypatch):
    def refuse(q):
        raise AssertionError("the dense adjacency was built")

    monkeypatch.setattr(TwinQuotient, "expansion", property(refuse))
    selectors = [_selector(family, args) for _, family, _, _, args in group_keys(64, FAMILIES)]
    # the groups of the export benchmark
    selectors += [["--heisenberg", "11"], ["--product", "cyclic:30", "cyclic:35"]]
    assert len(selectors) == 201
    out = str(tmp_path / "out")
    commands = (["analyze", "--no-timestamp"], ["spectrum"], ["export", "--format", "json"],
                ["export", "--format", "dot"])
    for selector in selectors:
        for argv in commands:
            assert main([*argv, *selector, "--out", out]) == 0, (argv, selector)
    for selector in (["--cyclic", "4096"], ["--dihedral", "2000"]):
        assert main(["analyze", "--no-timestamp", *selector, "--out", out]) == 0, selector
    assert main(["search", "--max-order", "200", "--out", str(tmp_path / "search.csv")]) == 0
    capsys.readouterr()
    for *_, g in enumerate_groups(200, FAMILIES):
        t = build_theta(g)
        is_complete(t), vertex_connectivity(t), open_problem_classify(t), order_class_spectrum(t)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"labels": ["e", "a", "b"], "orders": [1, 2.7, 3]}, "integers, got 2.7"),
        ({"labels": ["e", "a", "b"], "orders": [True, 2, 3]}, "integers, got true"),
        ({"labels": ["e", "a", "b"], "orders": [1, "3", 3]}, 'integers, got "3"'),
        ({"labels": "eab", "orders": [1, 3, 3]}, "JSON arrays"),
        ({"labels": ["e", "a", "b"], "orders": {"e": 1}}, "JSON arrays"),
    ],
)
def test_custom_file_rejects_non_integer_orders_and_non_arrays(tmp_path, capsys, doc, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "export", "--custom", str(path), "--format", "json")
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("big", [2**63, 10**30])
def test_custom_file_rejects_orders_beyond_int64(tmp_path, capsys, big):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"labels": ["e", "a"], "orders": [1, big]}))
    code, out, err = run_cli(capsys, "export", "--custom", str(path), "--format", "json")
    assert code == 1 and out == ""
    assert "at most 2**63 - 1" in err


def test_analyze_non_realizable_profile_fails_cross_check(tmp_path, capsys):
    # Lagrange-consistent yet not a group: one order-9 element
    path = tmp_path / "fake.json"
    path.write_text(
        json.dumps({"labels": list("exabcdfgh"), "orders": [1, 9, 3, 3, 3, 3, 3, 3, 3]})
    )
    code, _, err = run_cli(capsys, "analyze", "--custom", str(path), "--no-timestamp")
    assert code == 2
    assert "not the order profile" in err


def test_analyze_profile_with_a_false_planarity_criterion_exits_2(tmp_path, capsys):
    # |S| = 2, yet the elements of orders 4 and 6 form a K_{3,3}; no group has
    # an element of order 6 and none of order 3
    path = tmp_path / "fake.json"
    orders = [1, 2, 4, 4, 4, 6, 6, 6, 12, 12, 12, 12]
    path.write_text(json.dumps({"labels": [f"g{k}" for k in range(12)], "orders": orders}))
    code, out, err = run_cli(capsys, "analyze", "--custom", str(path), "--no-timestamp")
    assert code == 2 and out == ""
    assert "planarity criteria disagree" in err and "not the order profile" in err


def test_analyze_profile_with_one_universal_vertex_exits_2(tmp_path, capsys):
    # only the identity is universal: no group's graph, whose identity and elements
    # of prime order are universal, so no planarity rule decides it
    path = tmp_path / "fake.json"
    orders = [1, 4, 4, 4, 9, 9, 9, 36]
    path.write_text(json.dumps({"labels": [f"g{k}" for k in range(8)], "orders": orders}))
    code, out, err = run_cli(capsys, "analyze", "--custom", str(path), "--no-timestamp")
    assert code == 2 and out == ""
    assert "at most one universal vertex on 8 vertices" in err and "not the order profile" in err


# ---------------------------------------------------------------------------
# selectors
# ---------------------------------------------------------------------------


def test_parse_selector_families():
    assert parse_selector("cyclic:6").size == 6
    assert parse_selector("dihedral:5").size == 10
    assert parse_selector("dicyclic:3").size == 12
    assert parse_selector("elem-abelian:3:2").size == 9
    assert parse_selector("heisenberg:3").size == 27


def test_parse_selector_nested_product():
    g = parse_selector("product(cyclic:2,product(cyclic:3,cyclic:5))")
    assert g.size == 30


def _nested_product(depth):
    sel = "cyclic:1"
    for _ in range(depth):
        sel = f"product({sel},cyclic:1)"
    return sel


def test_parse_selector_nesting_at_the_limit():
    g = parse_selector(_nested_product(thetagraph.cli._MAX_PRODUCT_NESTING))
    assert g.size == 1


def test_deeply_nested_product_is_exit_1(capsys):
    # 1200 levels used to overflow the parser's recursion with a RecursionError
    code, out, err = run_cli(capsys, "analyze", "--product", _nested_product(1199), "cyclic:2")
    assert code == 1
    assert out == ""
    assert "nests more than" in err


def test_deeply_nested_custom_file_is_exit_1(tmp_path, capsys):
    # the JSON decoder raises RecursionError on nesting this deep
    path = tmp_path / "deep.json"
    path.write_text('{"labels": ' + "[" * 100_000 + "]" * 100_000 + ', "orders": [1]}')
    code, out, err = run_cli(capsys, "analyze", "--custom", str(path))
    assert code == 1
    assert out == ""
    assert "custom group file is not valid JSON" in err


def test_product_flag_takes_a_custom_path_with_a_comma(tmp_path, capsys):
    path = tmp_path / "g,1.json"
    path.write_text(json.dumps({"labels": ["e", "a"], "orders": [1, 2]}))
    code, out, _ = run_cli(capsys, "analyze", "--product", f"custom:{path}", "cyclic:2", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["group"]["order"] == 4


@pytest.mark.parametrize(
    "command, orders",
    # [1, 3] x Z_2 fails analyze's completeness cross-check (one element of
    # order 6 meets every other at a gcd of 1 or a prime), so analyze reads [1, 3, 4, 4]
    [(("export", "--format", "json"), [1, 3]), (("analyze", "--no-timestamp"), [1, 3, 4, 4])],
)
def test_product_with_a_custom_factor_reports_its_lagrange_violations(tmp_path, capsys, command, orders):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"labels": ["e", "a", "b", "c"][: len(orders)], "orders": orders}))
    code, out, _ = run_cli(capsys, *command, "--product", f"custom:{path}", "cyclic:2")
    assert code == 0
    n = 2 * len(orders)
    assert [(w["code"], w["message"]) for w in json.loads(out)["warnings"]] == [
        ("lagrange_violation", f"order {o} of element {label!r} does not divide group size {n}")
        for label, o in (("(a,0)", 3), ("(a,1)", 6))
    ]


def test_product_with_a_custom_factor_that_fails_a_cross_check_gives_the_hint(tmp_path, capsys):
    # the hint names the supplied order list wherever it sits in the group, not only at the top
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"labels": ["e", "a"], "orders": [1, 3]}))
    for selectors in (("custom:" + str(path), "cyclic:2"), ("cyclic:2", f"product(cyclic:1,custom:{path})")):
        code, out, err = run_cli(capsys, "analyze", "--no-timestamp", "--product", *selectors)
        assert code == 2 and out == ""
        assert "completeness criteria disagree" in err and "not the order profile" in err


def test_product_flag(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--product", "cyclic:3", "cyclic:3", "--no-timestamp"
    )
    assert code == 0
    report = json.loads(out)
    assert report["group"]["order"] == 9
    assert report["properties"]["complete"]["value"] is True


def test_bad_selector_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--product", "cyclic:3", "nonsense:1")
    assert code == 1 and "selector" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_spectra_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "spectra")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


# a failure each suite reports when every built graph has one adjacency bit flipped
CORRUPT_FAILURE = {
    "spectra": "closed form differs",
    "equitable": "theorem partition is not equitable",
    "connectivity": "kappa != n-1 for prime n",
    "properties": "cross-check raised",
    "universals": "cross-check raised",
    "all": "closed form differs",
}


@pytest.mark.parametrize("suite", list(CORRUPT_FAILURE))
def test_verify_corrupt_negative_control(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--corrupt")
    assert code == 2
    assert "FAIL" in out
    assert CORRUPT_FAILURE[suite] in out


# the whole negative-control report, so that no failure line changes unnoticed
CORRUPT_ALL_SHA256 = "bc36a83d95228b3eea7d6f4a7e2f2b9f555d7ea384f18ee68c7507c6e241f397"


def test_verify_corrupt_report_is_pinned(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--corrupt")
    assert code == 2 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CORRUPT_ALL_SHA256


def test_verify_names_a_check_that_raises_by_its_title(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "properties", "--corrupt")
    assert code == 2
    names = [line.split("  cases=")[0].rstrip() for line in out.splitlines() if "cases=" in line]
    assert names == [
        "structure: eulerian iff odd order with prime element orders",
        "structure: completeness iff no composite element order",
        "structure: cyclic planar iff n=3 or n=2^i",
        "structure: cyclic pq hamiltonian iff p=2",
    ]
    assert "    cross-check raised: eulerian criteria disagree on cyclic(3)" in out


def test_verify_connectivity_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "connectivity")
    assert code == 0
    assert "kappa formulas" in out


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _readme_block(first_token: str) -> list[str]:
    """The lines of the README's fenced block whose first line starts with first_token."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = [b.strip().splitlines() for b in text.split("```")[1::2]]
    (block,) = [b for b in blocks if b and b[0].startswith(first_token)]
    return block


def test_readme_cli_synopsis_matches_the_parser():
    parser = thetagraph.cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def options(p, selector: bool):
        return {
            s for group in p._action_groups if (group.title == "group selector (exactly one)") == selector
            for a in group._group_actions for s in a.option_strings if s.startswith("--") and s != "--help"
        }

    selector_flags = set(re.findall(r"--[a-z-]+", " ".join(_readme_block("--cyclic"))))
    synopsis = {line.split()[1]: line for line in _readme_block("theta ")}
    assert set(synopsis) == set(sub.choices)
    for name, p in sub.choices.items():
        line = synopsis[name]
        assert set(re.findall(r"--[a-z-]+", line)) == options(p, selector=False), name
        assert (selector_flags if "<selector>" in line else set()) == options(p, selector=True), name
    (suite,) = [a for a in sub.choices["verify"]._actions if "--suite" in a.option_strings]
    assert set(re.search(r"--suite ([a-z|]+)", synopsis["verify"]).group(1).split("|")) == set(suite.choices)


def test_search_help_names_every_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    # argparse wraps the help text, even inside a word
    help_text = "".join(capsys.readouterr().out.split())
    assert "comma-separatedsubsetof" + ",".join(FAMILIES) + "(defaultall)" in help_text


def test_search_cyclic_to_20(capsys):
    code, out, err = run_cli(capsys, "search", "--max-order", "20", "--families", "cyclic")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["params"] for r in rows] == [f"n={n}" for n in range(3, 21)]
    for r in rows:
        n = int(r["order"])
        if r["complete"] == "False":
            assert r["class"] == "kappa_equals_S"
            assert r["kappa"] == r["s_size"]
    assert "summary" in err


def test_search_dicyclic_flags_dic3(capsys):
    code, out, _ = run_cli(capsys, "search", "--max-order", "12", "--families", "dicyclic")
    rows = list(csv.DictReader(out.splitlines()))
    flagged = [r for r in rows if r["class"] == "kappa_exceeds_S"]
    assert [r["params"] for r in flagged] == ["n=3"]


def test_search_elementary_abelian_complete(capsys):
    code, out, _ = run_cli(capsys, "search", "--max-order", "9", "--families", "elementary_abelian")
    rows = list(csv.DictReader(out.splitlines()))
    by_params = {r["params"]: r for r in rows}
    assert by_params["p=3,m=2"]["class"] == "complete"


def test_search_writes_csv_and_jsonl(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "search", "--max-order", "16", "--families", "cyclic", "--out", str(out_path)
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 14
    jsonl = (tmp_path / "scan.jsonl").read_text().splitlines()
    assert len(jsonl) == 14
    assert json.loads(jsonl[0])["family"] == "cyclic"


def test_search_skip_completed_appends_only_new(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    run_cli(capsys, "search", "--max-order", "10", "--families", "cyclic", "--out", str(out_path))
    first = out_path.read_text()
    code, _, _ = run_cli(
        capsys,
        "search", "--max-order", "12", "--families", "cyclic",
        "--out", str(out_path), "--skip-completed",
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert [r["params"] for r in rows] == [f"n={n}" for n in range(3, 13)]
    assert out_path.read_text().startswith(first)


def test_search_ms_times_the_build_too(capsys, monkeypatch):
    build = thetagraph.cli.build_theta

    def slow_build(g):
        time.sleep(0.05)
        return build(g)

    monkeypatch.setattr(thetagraph.cli, "build_theta", slow_build)
    code, out, _ = run_cli(capsys, "search", "--max-order", "4", "--families", "cyclic")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2 and all(int(r["ms"]) >= 50 for r in rows)


def _search_rows(csv_path):
    """The CSV header and rows and the .jsonl records of a search, with ``ms`` dropped."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    records = [json.loads(line) for line in csv_path.with_suffix(".jsonl").read_text().splitlines()]
    for record in records:
        del record["ms"]
    return header, [row[:-1] for row in rows], records



# sha256 of the header and rows of ``search --max-order 1000``, and of its records, as
# ``_search_rows`` reads them (``ms`` dropped), recorded before the groups became order arrays
SEARCH_1000_SHA256 = (
    "44034c37dde0da6cf0848e490e1fc6546da31b89f9dc3cbe5ba7495c6b835ed3",
    "de27809a05addeece2c05e659292ad454fbd70954e72685a7663bd3491f1bee4",
)


def test_search_to_1000_is_pinned(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    assert main(["search", "--max-order", "1000", "--out", str(out_path)]) == 0
    header, rows, records = _search_rows(out_path)
    texts = ("\n".join(",".join(row) for row in [header, *rows]), "\n".join(json.dumps(r) for r in records))
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts) == SEARCH_1000_SHA256
    assert len(rows) == 4325 and capsys.readouterr().err.endswith("(total 4325)\n")

def test_search_stopped_sweep_keeps_its_rows_and_resumes(tmp_path, capsys, monkeypatch):
    argv = ["search", "--max-order", "16", "--families", "cyclic,dihedral"]
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    assert main([*argv, "--out", str(full)]) == 0
    header, rows, records = _search_rows(full)
    classify, calls, k = thetagraph.cli.open_problem_classify, [], 7

    def stop_at_k(t):
        calls.append(t)
        if len(calls) == k:
            raise CrossCheckError("sweep stopped")
        return classify(t)

    monkeypatch.setattr(thetagraph.cli, "open_problem_classify", stop_at_k)
    assert main([*argv, "--out", str(part)]) == 2
    assert _search_rows(part) == (SEARCH_CSV_HEADER, rows[: k - 1], records[: k - 1])
    monkeypatch.setattr(thetagraph.cli, "open_problem_classify", classify)
    assert main([*argv, "--out", str(part), "--skip-completed"]) == 0
    assert _search_rows(part) == (header, rows, records)
    assert len(rows) > k


@pytest.mark.parametrize("existing", [None, b""], ids=["missing", "empty"])
def test_search_skip_completed_starts_a_missing_or_empty_csv_with_its_header(tmp_path, capsys, existing):
    out_path = tmp_path / "scan.csv"
    if existing is not None:
        out_path.write_bytes(existing)
    argv = ["search", "--max-order", "8", "--families", "cyclic", "--out", str(out_path), "--skip-completed"]
    assert main(argv) == 0
    assert main(argv) == 0  # nothing is left to classify
    header, rows, records = _search_rows(out_path)
    assert header == SEARCH_CSV_HEADER
    assert [row[1] for row in rows] == [record["params"] for record in records] == [f"n={n}" for n in range(3, 9)]


def test_search_skip_completed_refuses_a_csv_with_another_header(tmp_path, capsys):
    out_path = tmp_path / "other.csv"
    out_path.write_bytes(b"name,value\r\ncyclic,n=3\r\n")
    code, out, err = run_cli(
        capsys, "search", "--max-order", "8", "--out", str(out_path), "--skip-completed"
    )
    assert code == 1 and str(out_path) in err and "Traceback" not in err
    assert out_path.read_bytes() == b"name,value\r\ncyclic,n=3\r\n"
    assert not (tmp_path / "other.jsonl").exists()


def test_search_skip_completed_without_out_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "search", "--max-order", "8", "--skip-completed")
    assert code == 1 and out == "" and "--out" in err


def test_search_out_into_a_missing_directory_exits_1_before_any_build(tmp_path, capsys, monkeypatch):
    build, calls = thetagraph.cli.build_theta, []

    def counting_build(g):
        calls.append(g)
        return build(g)

    monkeypatch.setattr(thetagraph.cli, "build_theta", counting_build)
    code, _, err = run_cli(capsys, "search", "--max-order", "64", "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 1 and "cannot write" in err
    assert calls == []


def test_search_rejects_bad_family(capsys):
    code, _, err = run_cli(capsys, "search", "--max-order", "10", "--families", "sporadic")
    assert code == 1 and "sporadic" in err


def test_search_rejects_tiny_max_order(capsys):
    code, _, _ = run_cli(capsys, "search", "--max-order", "2")
    assert code == 1


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_bad_log_level_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("THETA_LOG", "blah")
    code, _, err = run_cli(capsys, "analyze", "--cyclic", "3")
    assert code == 1 and "THETA_LOG" in err


def test_unknown_export_format_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "export", "--cyclic", "3", "--format", "pdf")
    assert code == 1


def test_emit_writes_pieces_byte_for_byte_to_a_file_and_to_stdout(tmp_path, capsysbinary):
    def pieces():  # characters of one, two, three and four bytes
        for k in range(1 << 16):
            yield f"{k} " + "a\u00e9\u20ac\U0001f600" * (k % 7) + "\n"

    want = "".join(pieces()).encode("utf-8")
    assert len(want) > 2 << 20
    out = tmp_path / "big.txt"
    _emit(pieces(), str(out))
    assert out.read_bytes() == want
    _emit(pieces(), None)
    assert capsysbinary.readouterr().out == want


NO_NETWORKX_SCRIPT = """
import contextlib, hashlib, io, json, sys
sys.modules["networkx"] = None  # from here on, importing networkx raises ImportError
from thetagraph.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps(runs))
"""


def test_commands_on_built_in_groups_never_import_networkx(tmp_path):
    # networkx is a test oracle, not a runtime dependency: every command runs with its import blocked
    argvs = [
        *(["analyze", "--no-timestamp", f"--{fam}", str(n)]
          for fam, n in (("dihedral", 60), ("dicyclic", 15), ("heisenberg", 7), ("dihedral", 35))),
        ["spectrum", "--dihedral", "6"],
        ["export", "--format", "json", "--cyclic", "12"],
        ["export", "--format", "dot", "--product", "cyclic:30", "cyclic:35"],
        ["search", "--max-order", "64", "--out", str(tmp_path / "search.csv")],
        ["verify", "--suite", "all"],
        ["verify", "--suite", "all", "--corrupt"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    runs = json.loads(proc.stdout)
    assert [code for code, _ in runs] == [0] * (len(argvs) - 1) + [2]
    assert runs[-1][1] == CORRUPT_ALL_SHA256
    assert (tmp_path / "search.csv").stat().st_size > 0


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["analyze", "--no-timestamp", "--dicyclic", "3"], 0),
        (["verify", "--suite", "universals"], 0),
        (["export", "--format", "dot", "--cyclic", "6"], 0),
        (["analyze", "--no-such-flag"], 1),
    ],
)
def test_the_same_main_call_twice_in_one_process_gives_the_same_result(capsys, argv, expected_code):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == expected_code
    assert thetagraph.cli._build_parser() is thetagraph.cli._build_parser()
