"""The benchmark's workloads, one op runner and the output checker.

An op is one ``thetagraph.cli.main(argv)`` call, with ``--out`` pointed into
a scratch directory where the command takes it. The checker compares what
the op produced against ``expected.json``, recorded at the commit that
defined the benchmark by ``record.py``. It is written so that a different
but valid certificate (Hamiltonian cycle, separating set) or an eigensolver
that differs in the last digits still passes, while a wrong answer fails.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

EIGEN_TOL = 1e-7  # the program's own SPECTRUM_MATCH_TOL


@dataclass(frozen=True)
class Op:
    name: str  # key into expected.json
    kind: str  # analyze | search | export | verify
    argv: tuple[str, ...]
    out: str | None = None  # file name inside the scratch directory


# Why each workload exists is written up in README.md.
WORKLOADS: dict[str, tuple[Op, ...]] = {
    "analyze": tuple(
        Op(f"analyze {fam}({n})", "analyze",
           ("analyze", "--no-timestamp", f"--{fam}", str(n)), f"{fam}{n}.json")
        for fam, n in (("dihedral", 60), ("dicyclic", 15), ("heisenberg", 7), ("dihedral", 35))
    ),
    "search": (
        Op("search max-order 64", "search", ("search", "--max-order", "64"), "search.csv"),
    ),
    "export": (
        Op("export json heisenberg(11)", "export",
           ("export", "--format", "json", "--heisenberg", "11"), "heisenberg11.json"),
        Op("export dot product(cyclic:30,cyclic:35)", "export",
           ("export", "--format", "dot", "--product", "cyclic:30", "cyclic:35"), "product.dot"),
    ),
    "verify": (
        Op("verify all", "verify", ("verify", "--suite", "all")),
    ),
}


@dataclass
class Outcome:
    """What one op did: exit code, wall time and everything it wrote."""

    op: Op
    rc: int | None
    seconds: float
    stdout: str
    error: str | None  # repr of an exception that escaped cli.main
    out_path: Path | None

    def output_bytes(self) -> int:
        size = len(self.stdout)
        if self.out_path is not None:
            paths = [self.out_path]
            if self.op.kind == "search":
                paths.append(_jsonl_twin(self.out_path))
            size += sum(p.stat().st_size for p in paths if p.exists())
        return size


def _jsonl_twin(csv_path: Path) -> Path:
    # cli._cmd_search writes the .jsonl twin next to the CSV
    return csv_path.with_suffix(".jsonl")


def run_op(main, op: Op, workdir: Path) -> Outcome:
    """Time one ``main(argv)`` call; stdout and stderr are captured."""
    argv = list(op.argv)
    out_path = None
    if op.out is not None:
        out_path = workdir / op.out
        argv += ["--out", str(out_path)]
        # an op that exits 0 without writing must not pass on an earlier op's file
        out_path.unlink(missing_ok=True)
        if op.kind == "search":
            _jsonl_twin(out_path).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            error = repr(exc)
        seconds = time.perf_counter() - started
    return Outcome(op, rc, seconds, stdout.getvalue(), error, out_path)


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------


def observe(outcome: Outcome) -> dict:
    """The op's output in the form ``expected.json`` records it."""
    kind = outcome.op.kind
    if kind == "analyze":
        return {"report": json.loads(outcome.out_path.read_text(encoding="utf-8"))}
    if kind == "search":
        with open(outcome.out_path, encoding="utf-8", newline="") as fh:
            header, *body = csv.reader(fh)
        keep = [k for k, name in enumerate(header) if name != "ms"]
        records = []
        for line in _jsonl_twin(outcome.out_path).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record.pop("ms", None)
            records.append(record)
        return {"header": header, "rows": [[row[k] for k in keep] for row in body],
                "records": records}
    if kind == "export":
        digest, size = file_digest(outcome.out_path)
        return {"sha256": digest, "bytes": size}
    *lines, summary = outcome.stdout.splitlines() or [""]
    checks = []
    for line in lines:
        match = _VERIFY_LINE.fullmatch(line)
        checks.append([match[1], int(match[2]), match[3]] if match else ["unparsed", line])
    return {"checks": checks, "summary": summary}


_VERIFY_LINE = re.compile(r"(.*?)\s+cases=(\d+)\s+(PASS|FAIL)")


def check(outcome: Outcome, expected: dict, graphs: "GraphCache") -> tuple[list[str], int]:
    """Problems found (empty when the op passed) and the items it verified.

    An item is a report (analyze), a classified group row (search), a
    written graph (export) or a check case (verify).
    """
    if outcome.error is not None:
        return [f"raised {outcome.error}"], 0
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}"], 0
    try:
        return _compare(outcome, expected[outcome.op.name], graphs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"], 0


def _compare(outcome: Outcome, exp: dict, graphs: "GraphCache") -> tuple[list[str], int]:
    got = observe(outcome)
    kind = outcome.op.kind
    if kind == "analyze":
        adj = graphs.adjacency(outcome.op.name, exp["orders"])
        return check_analyze(got["report"], exp["report"], adj), 1
    if kind == "search":
        problems = [f"search {key} differ from the recorded {key}"
                    for key in ("header", "rows", "records") if got[key] != exp[key]]
        return problems, len(got["rows"])
    if kind == "export":
        if got != {"sha256": exp["sha256"], "bytes": exp["bytes"]}:
            return [f"export differs: {got}"], 0
        return [], 1
    # verify: every line reads PASS and every case count is unchanged
    if got != {"checks": exp["checks"], "summary": exp["summary"]}:
        return ["verify lines or case counts differ from the recorded run"], 0
    return [], sum(cases for _, cases, _ in got["checks"])


def check_analyze(report: dict, want_report: dict, adj: list[set[int]]) -> list[str]:
    """Every field equal, except numeric eigenvalues (within EIGEN_TOL, with
    exact multiplicities) and certificates (re-validated on the graph)."""
    problems = []
    got, want = _split_analyze(report), _split_analyze(want_report)
    if got["rest"] != want["rest"]:
        problems.append("report fields differ from the recorded report")
    if not _same_eigenvalues(got["numeric"], want["numeric"]):
        problems.append("numeric spectrum differs beyond tolerance")
    cycle = got["cycle"]
    if (cycle is None) != (want["cycle"] is None):
        problems.append("Hamiltonian cycle presence changed")
    elif cycle is not None and not _is_hamiltonian_cycle(adj, cycle):
        problems.append("Hamiltonian cycle is not valid on the graph")
    tough = got["tough_cut"]
    if (tough is None) != (want["tough_cut"] is None):
        problems.append("toughness cut presence changed")
    elif tough is not None and components_after_removal(adj, tough) <= len(set(tough)):
        problems.append("toughness cut does not refute 1-toughness")
    cut = got["kappa_cut"]
    kappa = report.get("properties", {}).get("vertex_connectivity", {}).get("value")
    if (cut is None) != (want["kappa_cut"] is None):
        problems.append("connectivity cut presence changed")
    elif cut is not None and (len(set(cut)) != kappa or components_after_removal(adj, cut) < 2):
        problems.append("connectivity cut is not a separating set of size kappa")
    return problems


def _split_analyze(report: dict) -> dict:
    """Pull the fields with their own rule out of a deep copy of a report."""
    rest = json.loads(json.dumps(report))
    props = rest.get("properties", {})
    ham = props.get("hamiltonian", {})
    spectrum = rest.get("spectrum") or {}
    return {
        "numeric": spectrum.pop("numeric", None),
        "cycle": ham.pop("cycle", None),
        "tough_cut": ham.pop("witness_cut", None),
        "kappa_cut": props.get("vertex_connectivity", {}).pop("witness_cut", None),
        "rest": rest,
    }


def _same_eigenvalues(got, want) -> bool:
    if got is None or want is None or len(got) != len(want):
        return got == want
    return all(
        g["multiplicity"] == w["multiplicity"]
        and g["kind"] == w["kind"]
        and abs(g["value_numeric"] - w["value_numeric"]) <= EIGEN_TOL
        for g, w in zip(got, want)
    )


def file_digest(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


# ---------------------------------------------------------------------------
# an independent rebuild of the graph, for certificate re-validation
# ---------------------------------------------------------------------------


def _one_or_prime(n: int) -> bool:
    return n == 1 or (n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)))


class GraphCache:
    """Adjacency sets rebuilt from recorded element orders, once per op.

    The rule is the paper's definition (gcd of the orders is 1 or prime),
    computed here without the program's code so that the checker does not
    trust the code it checks.
    """

    def __init__(self):
        self._adj: dict[str, list[set[int]]] = {}

    def adjacency(self, key: str, orders: list[int]) -> list[set[int]]:
        if key not in self._adj:
            n = len(orders)
            self._adj[key] = [
                {j for j in range(n) if j != i and _one_or_prime(math.gcd(orders[i], orders[j]))}
                for i in range(n)
            ]
        return self._adj[key]


def _is_hamiltonian_cycle(adj: list[set[int]], cycle: list[int]) -> bool:
    n = len(adj)
    if n < 3 or len(cycle) != n or sorted(cycle) != list(range(n)):
        return False
    return all(cycle[(k + 1) % n] in adj[cycle[k]] for k in range(n))


def components_after_removal(adj: list[set[int]], removed) -> int:
    removed = set(removed)
    seen = set(removed)
    count = 0
    for start in range(len(adj)):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for w in adj[queue.popleft()] - seen:
                seen.add(w)
                queue.append(w)
    return count
