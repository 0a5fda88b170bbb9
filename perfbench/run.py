"""Run one workload of the thetagraph benchmark and print its metrics.

Run from the root of a checkout, which must hold ``src/thetagraph``:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 40 --trace 0

The workload runs in this single process as a closed loop with one client:
each op is one ``thetagraph.cli.main(argv)`` call and the next starts only
when the previous one has returned and its output has been checked. Ops run
in rounds, one of each op of the workload in an order shuffled by the seed,
and only whole rounds are measured, so every run weighs its ops alike.

The host's speed drifts by up to 1.5 times, over seconds as well as
minutes, and every op slows alike. So a fixed reference task, which runs
none of the program's code, is timed before and after every op, and each
op's time is scaled by how much slower or faster than nominal the task ran
on both sides of it (see ``Reference``).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` rounds alternate untraced and traced, and the last line
holds the per-layer metrics of the traced rounds. Run records and spans go
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# BLAS and OpenMP pools of the workload processes: one thread each, so that
# the single client never needs more than one of the machine's cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# set-up is probed this many times per run, spread over the run, because the
# host's speed drifts over tens of seconds
SETUP_PROBES = 6
# about the reference task's mean time on the 2-vCPU VM (Intel Xeon, Python
# 3.11, numpy 2.4) where the benchmark was defined, which read 0.08-0.12 s as
# the host drifted; it only fixes the scale of the scaled times
REFERENCE_NOMINAL_S = 0.1
# tiny ops, run untimed so that lazy set-up is done; verify has no suite that
# takes less than half a second, and its code paths are warmed by the others
WARMUP = (
    workloads.Op("warm-up analyze", "analyze", ("analyze", "--no-timestamp", "--dihedral", "6"), "w.json"),
    workloads.Op("warm-up search", "search", ("search", "--max-order", "12"), "w.csv"),
    workloads.Op("warm-up export json", "export", ("export", "--format", "json", "--cyclic", "12"), "w1"),
    workloads.Op("warm-up export dot", "export", ("export", "--format", "dot", "--cyclic", "12"), "w2"),
)


def pin_threads(env) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


def load_program(root: Path):
    """Import ``thetagraph.cli`` from ``root/src``, with thread pools pinned."""
    src = root / "src"
    if not (src / "thetagraph" / "cli.py").is_file():
        raise SystemExit(f"error: no thetagraph sources under {src}; run from a checkout root")
    pin_threads(os.environ)  # before numpy is imported
    sys.path.insert(0, str(src))
    from thetagraph import cli

    if Path(cli.__file__).resolve().parent != (src / "thetagraph").resolve():
        raise SystemExit(f"error: imported thetagraph from {cli.__file__}, not from {src}")
    return cli


def setup_probe(root: Path):
    """A callable timing one fresh interpreter that imports ``thetagraph.cli``
    (which pulls in numpy and networkx); the workloads need no input files."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    pin_threads(env)

    def probe() -> float:
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import thetagraph.cli"],
                       cwd=root, env=env, check=True)
        return time.perf_counter() - started

    return probe


class Reference:
    """A fixed task in the benchmark's own code that tracks the host's speed.

    It mixes what the workloads spend their time on: breadth-first searches
    over Python sets (the connectivity and BFS predicates), symmetric
    eigendecompositions in numpy (``eig_sym``) and JSON serialisation
    (export). Its inputs are built once, and the garbage collector is off
    while it runs, so the program's heap does not change its time. A change
    to the program therefore cannot move it; only the host can.
    """

    def __init__(self):
        import numpy

        rng = random.Random(20191107)
        n = 1000
        self.adj = [set() for _ in range(n)]
        for _ in range(8 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                self.adj[a].add(b)
                self.adj[b].add(a)
        m = numpy.random.default_rng(20191107).standard_normal((120, 120))
        self.matrix = m + m.T
        self.rows = [{"vertex": k, "neighbours": sorted(self.adj[k])} for k in range(n)]
        self()  # untimed, so that the first timed sample finds warm caches

    def __call__(self) -> float:
        """Seconds the task took; about REFERENCE_NOMINAL_S at nominal speed."""
        import numpy

        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for source in range(36):
                seen = {source}
                queue = [source]
                for u in queue:
                    for w in self.adj[u]:
                        if w not in seen:
                            seen.add(w)
                            queue.append(w)
            for _ in range(30):
                numpy.linalg.eigh(self.matrix)
            json.dumps(self.rows)
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()


@dataclass
class Record:
    op: str
    op_id: int
    seconds: float
    items: int
    problems: list[str]
    output_bytes: int
    # the reference task's mean time on both sides of the op over
    # REFERENCE_NOMINAL_S; 1.0 when no reference task runs
    slowdown: float = 1.0

    @property
    def scaled(self) -> float:
        """The op's wall time at the host's nominal speed."""
        return self.seconds / self.slowdown


@dataclass
class Round:
    traced: bool
    records: list[Record] = field(default_factory=list)

    @property
    def op_seconds(self) -> float:
        return sum(r.seconds for r in self.records)


def measure(cli, ops, expected: dict, seconds: float, seed: int, workdir: Path,
            tracer: tracing.Tracer | None = None, probe=None,
            reference=None) -> tuple[list[Round], list[tuple[float, float]]]:
    """Whole rounds while the time so far plus half the last round fits in
    ``seconds``, so that a run measures about ``seconds`` on average and at
    most half a round more. At least one round, and with a tracer at least
    one untraced and one traced. The tracer is installed for the traced
    rounds only, so untraced rounds run the program as it is.

    With ``probe``, set-up is timed once at the start and then between ops
    whenever a share of the run has passed. With ``reference``, the
    reference task is timed at the start and after every op and probe, and
    each op and probe gets the slowdown of the two samples around it. Both
    count against ``seconds`` but never overlap an op. Returns the rounds
    and the set-up times, each with its slowdown."""
    rng = random.Random(seed)
    graphs = workloads.GraphCache()
    rounds: list[Round] = []
    setup: list[tuple[float, float]] = []
    op_id = 0
    started = time.perf_counter()
    last_probe = -math.inf
    before = reference() if reference is not None else REFERENCE_NOMINAL_S

    def slowdown() -> float:
        nonlocal before
        after = reference() if reference is not None else REFERENCE_NOMINAL_S
        mean = (before + after) / 2
        before = after
        return mean / REFERENCE_NOMINAL_S

    while True:
        rnd = Round(traced=tracer is not None and len(rounds) % 2 == 1)
        order = list(ops)
        rng.shuffle(order)
        round_started = time.perf_counter()
        if rnd.traced:
            tracer.install()
        try:
            for op in order:
                if probe is not None and time.perf_counter() - last_probe >= seconds / SETUP_PROBES:
                    last_probe = time.perf_counter()
                    seconds_taken = probe()
                    setup.append((seconds_taken, slowdown()))
                gc.collect()
                if rnd.traced:
                    tracer.op = op_id
                outcome = workloads.run_op(cli.main, op, workdir)
                op_slowdown = slowdown()
                # the checker runs none of the program's code, so it adds no spans
                problems, items = workloads.check(outcome, expected, graphs)
                rnd.records.append(Record(op.name, op_id, outcome.seconds, items, problems,
                                          outcome.output_bytes(), op_slowdown))
                op_id += 1
        finally:
            if rnd.traced:
                tracer.uninstall()
        rounds.append(rnd)
        now = time.perf_counter()
        enough = tracer is None or len(rounds) >= 2
        if enough and (now - started) + (now - round_started) / 2 > seconds:
            return rounds, setup


def tail(by_op: dict[str, list[float]]) -> tuple[float, float | None, int]:
    """(value, percentile, samples beyond it). With at least 100 ops, the op
    wall time at the highest nearest-rank percentile that has 10 samples
    beyond it, which is then p90 or higher. With fewer, that percentile
    falls among the ops of a round that mixes fast and slow ops (export's
    two ops differ 70-fold), so it jumps between them from run to run, and
    a single slow op would set the maximum. The tail is then the median
    time of the workload's slowest op instead (percentile None)."""
    xs = sorted(t for times in by_op.values() for t in times)
    if len(xs) >= 100:
        rank = len(xs) - 10
        return xs[rank - 1], 100.0 * rank / len(xs), 10
    return max(statistics.median(v) for v in by_op.values()), None, 0


def end_to_end(rounds: list[Round], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, with every op and set-up time scaled to the
    host's nominal speed by its own slowdown. The unscaled values go to the
    detail record."""
    records = [r for rnd in rounds for r in rnd.records]
    passed = [r for r in records if not r.problems]

    def times(seconds) -> dict:
        by_op: dict[str, list[float]] = {}
        for r in records:
            by_op.setdefault(r.op, []).append(seconds(r))
        tail_value, pct, beyond = tail(by_op)
        return {
            "items_per_s": sum(r.items for r in passed) / sum(seconds(r) for r in records),
            # per op first, so that a mix of fast and slow ops does not make the
            # median jump between the two extremes that happen to meet in the middle
            "latency_p50_s": statistics.median(statistics.median(v) for v in by_op.values()),
            "latency_tail_s": tail_value,
        }, pct, beyond

    values, pct, beyond = times(lambda r: r.scaled)
    raw, _, _ = times(lambda r: r.seconds)
    values["setup_s"] = statistics.median(t / sd for t, sd in setup)
    raw["setup_s"] = statistics.median(t for t, _ in setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["ok_ratio"] = len(passed) / len(records)
    detail = {"ops": len(records), "rounds": len(rounds), "tail_percentile": pct,
              "tail_beyond": beyond, "fail_ratio": 1 - values["ok_ratio"],
              "host_slowdown": statistics.median(r.slowdown for r in records),
              "unscaled": raw, "setup_probes_s": [t for t, _ in setup]}
    return values, detail


def per_layer(rounds: list[Round], tracer: tracing.Tracer) -> tuple[dict, dict]:
    traced = [rnd for rnd in rounds if rnd.traced]
    plain = [rnd for rnd in rounds if not rnd.traced]
    per_round = []
    for rnd in traced:
        values = tracing.layer_metrics(tracer.spans, {r.op_id for r in rnd.records})
        values["cli.output_bytes"] = sum(r.output_bytes for r in rnd.records)
        per_round.append(values)
    values = tracing.median_metrics(per_round)
    values["trace.overhead_s"] = (statistics.median(r.op_seconds for r in traced)
                                  - statistics.median(r.op_seconds for r in plain))
    detail = {"rounds_traced": len(traced), "rounds_untraced": len(plain),
              "spans": len(tracer.spans)}
    return values, detail


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, args) -> dict:
    import networkx
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_pools": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    root = Path.cwd()
    cli = load_program(root)
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ops-", dir=out_dir))
    tracer = tracing.Tracer() if args.trace else None
    try:
        for op in WARMUP:
            workloads.run_op(cli.main, op, workdir)
        ops = workloads.WORKLOADS[args.workload]
        if tracer is None:
            rounds, setup = measure(cli, ops, expected, args.seconds, args.seed, workdir,
                                    probe=setup_probe(root), reference=Reference())
            values, detail = end_to_end(rounds, setup)
        else:
            rounds, _ = measure(cli, ops, expected, args.seconds, args.seed, workdir, tracer)
            values, detail = per_layer(rounds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(units) != set(values):
        raise SystemExit(f"error: metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    records = [r for rnd in rounds for r in rnd.records]
    failed = [r for r in records if r.problems]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    env = environment(root, args)
    record = dict(result, env=env, detail=detail,
                  ops=[[r.op, r.seconds, r.items, r.problems] for r in records])
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                 encoding="utf-8")
    if tracer is not None:
        tracer.write(out_dir / f"spans-{stem}.jsonl")

    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    for r in failed:
        print(f"FAILED {r.op}: {'; '.join(r.problems)}")
    for name, v in values.items():
        print(f"  {name:<38} {v:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
