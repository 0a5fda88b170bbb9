"""Record the outputs the checker expects into ``expected.json``.

Run once from the root of a checkout, at the commit whose outputs are taken
as correct:

    python3 perfbench/record.py

Re-recording turns the current outputs into the reference, so do it only
when a change of output is intended and has been reviewed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    cli = run.load_program(root)
    expected = {}
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=root))
    try:
        for ops in workloads.WORKLOADS.values():
            for op in ops:
                outcome = workloads.run_op(cli.main, op, workdir)
                if outcome.error is not None or outcome.rc != 0:
                    raise SystemExit(f"error: {op.name} failed: rc={outcome.rc} {outcome.error}")
                entry = workloads.observe(outcome)
                if op.kind == "analyze":
                    selector = f"{op.argv[2].removeprefix('--')}:{op.argv[3]}"
                    entry["orders"] = list(cli.parse_selector(selector).orders)
                expected[op.name] = entry
                print(f"recorded {op.name} in {outcome.seconds:.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
