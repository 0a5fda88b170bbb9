"""Command-line interface: analyze / spectrum / export / verify / search.

Exit codes: 0 success, 1 usage or input error, 2 a theorem cross-check
failed. Logging level comes from THETA_LOG (error|warn|info|debug).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import os
import sys
import time

from . import groups, verify
from .analysis import analyze_group, spectrum_section
from .graph import build_theta, dot_pieces, json_pieces, prime_order_set
from .properties import (
    DEFAULT_NODE_BUDGET,
    CrossCheckError,
    is_complete,
    open_problem_classify,
    vertex_connectivity,
)

log = logging.getLogger("thetagraph")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CROSSCHECK = 2

SEARCH_CSV_HEADER = ["family", "params", "order", "complete", "kappa", "s_size", "class", "ms"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    def __init__(self, message):
        super().__init__(message)


def _configure_logging() -> None:
    level_name = os.environ.get("THETA_LOG", "warn").lower()
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    if level_name not in levels:
        raise SystemExit2(f"THETA_LOG must be one of error|warn|info|debug, got {level_name!r}")
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(name)s: %(message)s")
    # set on the package logger too, as basicConfig leaves an already configured root alone
    log.setLevel(levels[level_name])


# ---------------------------------------------------------------------------
# group selectors
# ---------------------------------------------------------------------------


def _load_custom(path: str) -> groups.GroupSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit2(f"cannot read custom group file: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit2(f"custom group file is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "labels" not in doc or "orders" not in doc:
        raise SystemExit2('custom group file must be {"labels": [...], "orders": [...]}')
    labels, orders = doc["labels"], doc["orders"]
    if not isinstance(labels, list) or not isinstance(orders, list):
        raise SystemExit2('custom group "labels" and "orders" must be JSON arrays')
    for x in orders:
        if not isinstance(x, int) or isinstance(x, bool):
            raise SystemExit2(f"custom group orders must be integers, got {json.dumps(x)}")
    try:
        return groups.from_orders([str(x) for x in labels], orders)
    except ValueError as exc:
        raise SystemExit2(f"invalid custom group: {exc}")


def parse_selector(text: str) -> groups.GroupSpec:
    """Compact selector syntax, mirroring the constructors:

    cyclic:N  dihedral:N  dicyclic:N  elem-abelian:P:M  heisenberg:P
    custom:PATH  product(SEL,SEL)  -- products nest.
    """
    text = text.strip()
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product(") : -1]
        depth = 0
        split_at = -1
        for k, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split_at = k
                break
        if split_at < 0:
            raise SystemExit2(f"malformed product selector: {text!r}")
        left, right = parse_selector(inner[:split_at]), parse_selector(inner[split_at + 1 :])
        try:
            return groups.direct_product(left, right)
        except ValueError as exc:
            raise SystemExit2(f"invalid selector {text!r}: {exc}")
    head, _, rest = text.partition(":")
    try:
        if head == "cyclic":
            return groups.cyclic(int(rest))
        if head == "dihedral":
            return groups.dihedral(int(rest))
        if head == "dicyclic":
            return groups.dicyclic(int(rest))
        if head == "elem-abelian":
            p, m = rest.split(":")
            return groups.elementary_abelian(int(p), int(m))
        if head == "heisenberg":
            return groups.heisenberg(int(rest))
        if head == "custom":
            return _load_custom(rest)
    except SystemExit2:
        raise
    except (TypeError, ValueError) as exc:
        raise SystemExit2(f"invalid selector {text!r}: {exc}")
    raise SystemExit2(f"unknown selector {text!r}")


def _add_selector_flags(parser: argparse.ArgumentParser) -> None:
    sel = parser.add_argument_group("group selector (exactly one)")
    sel.add_argument("--cyclic", type=int, metavar="N")
    sel.add_argument("--dihedral", type=int, metavar="N")
    sel.add_argument("--dicyclic", type=int, metavar="N")
    sel.add_argument("--elem-abelian", type=int, nargs=2, metavar=("P", "M"))
    sel.add_argument("--heisenberg", type=int, metavar="P")
    sel.add_argument("--product", nargs=2, metavar=("SEL", "SEL"))
    sel.add_argument("--custom", metavar="PATH")


def _group_from_args(args: argparse.Namespace) -> groups.GroupSpec:
    chosen = [
        name
        for name in ("cyclic", "dihedral", "dicyclic", "elem_abelian", "heisenberg", "product", "custom")
        if getattr(args, name) is not None
    ]
    if len(chosen) != 1:
        raise SystemExit2("exactly one group selector flag is required")
    name = chosen[0]
    value = getattr(args, name)
    if name == "elem_abelian":
        text = "elem-abelian:{}:{}".format(*value)
    elif name == "product":
        text = "product({},{})".format(*value)
    else:
        text = f"{name}:{value}"
    return parse_selector(text)


def _emit(pieces, out_path: str | None) -> None:
    """Write the text pieces, one after another, to the file or to stdout."""
    try:
        with (contextlib.nullcontext(sys.stdout) if out_path is None
              else open(out_path, "w", encoding="utf-8")) as fh:
            fh.writelines(pieces)
    except BrokenPipeError:  # the reader left early (``| head``); stop quietly, flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        raise SystemExit2(f"cannot write output file: {exc}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    g = _group_from_args(args)
    report = analyze_group(
        g, hamiltonian_budget=args.budget, timestamp=not args.no_timestamp
    )
    _emit((json.dumps(report, indent=2) + "\n",), args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = _group_from_args(args)
    section = spectrum_section(build_theta(g))
    _emit((json.dumps(section, indent=2) + "\n",), args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    t = build_theta(_group_from_args(args))
    pieces = (dot_pieces if args.format == "dot" else json_pieces)(t)
    if log.isEnabledFor(logging.DEBUG):  # the pieces are held, to time and count them
        started = time.perf_counter()
        pieces = list(pieces)
        seconds = time.perf_counter() - started
        log.debug(
            "export %s: %d vertices, %d edges, %d bytes, %.4f s serialising",
            args.format, t.n_vertices, t.edge_count, sum(len(p.encode("utf-8")) for p in pieces), seconds,
        )
    _emit(pieces, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    builder = verify.corrupting_builder if args.corrupt else build_theta
    results = verify.run_suite(args.suite, build=builder)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{r.name:<{width}}  cases={r.cases:<5d} {status}")
        for failure in r.failures[:10]:
            print(f"    {failure}")
        if len(r.failures) > 10:
            print(f"    ... {len(r.failures) - 10} more failures")
        all_ok = all_ok and r.ok
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return EXIT_OK if all_ok else EXIT_CROSSCHECK


def _cmd_search(args) -> int:
    if args.max_order < 3:
        raise SystemExit2("--max-order must be at least 3")
    families = [f.strip() for f in args.families.split(",")] if args.families else groups.FAMILIES
    try:
        candidates = groups.enumerate_groups(args.max_order, families)
    except ValueError as exc:
        raise SystemExit2(str(exc))

    done: set[tuple[str, str]] = set()
    if args.skip_completed and args.out and os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                done.add((row["family"], row["params"]))

    records = []
    for order, family, params, g in candidates:
        if (family, params) in done:
            continue
        started = time.perf_counter()
        t = build_theta(g)
        complete = is_complete(t)
        conn = vertex_connectivity(t)
        s_size = prime_order_set(t).size
        classification = open_problem_classify(t)
        ms = int(round((time.perf_counter() - started) * 1000))
        records.append(
            {
                "family": family,
                "params": params,
                "order": order,
                "complete": complete,
                "kappa": conn.kappa,
                "s_size": s_size,
                "class": classification,
                "ms": ms,
            }
        )

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SEARCH_CSV_HEADER)
    appending = bool(args.skip_completed and args.out and os.path.exists(args.out))
    if not appending:
        writer.writeheader()
    for rec in records:
        writer.writerow(rec)
    csv_text = buf.getvalue()

    if args.out:
        try:
            with open(args.out, "a" if appending else "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text)
            jsonl_path = (
                args.out[: -len(".csv")] + ".jsonl" if args.out.endswith(".csv") else args.out + ".jsonl"
            )
            with open(jsonl_path, "a" if appending else "w", encoding="utf-8") as fh:
                for rec in records:
                    fh.write(json.dumps(rec) + "\n")
        except OSError as exc:
            raise SystemExit2(f"cannot write search output: {exc}")
    else:
        sys.stdout.write(csv_text)

    summary: dict[str, int] = {}
    for rec in records:
        summary[rec["class"]] = summary.get(rec["class"], 0) + 1
    print(
        "search summary: "
        + ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
        + f" (total {len(records)})",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="theta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_analyze = sub.add_parser("analyze", help="full property and spectrum report as JSON")
    _add_selector_flags(p_analyze)
    p_analyze.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                           help="node budget for the Hamiltonian search")
    p_analyze.add_argument("--no-timestamp", action="store_true",
                           help="omit the timestamp field for byte-identical reports")
    p_analyze.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_spectrum = sub.add_parser("spectrum", help="numeric and closed-form spectra as JSON")
    _add_selector_flags(p_spectrum)
    p_spectrum.add_argument("--out", metavar="PATH")
    p_spectrum.set_defaults(fn=_cmd_spectrum)

    p_export = sub.add_parser("export", help="graph as DOT or JSON")
    _add_selector_flags(p_export)
    p_export.add_argument("--format", choices=("dot", "json"), required=True)
    p_export.add_argument("--out", metavar="PATH")
    p_export.set_defaults(fn=_cmd_export)

    p_verify = sub.add_parser("verify", help="run the theorem cross-check battery")
    p_verify.add_argument("--suite", default="all", choices=sorted(verify.SUITES))
    p_verify.add_argument("--corrupt", action="store_true",
                          help="negative control: corrupt one adjacency bit per graph")
    p_verify.set_defaults(fn=_cmd_verify)

    p_search = sub.add_parser("search", help="classify families for the open problem")
    p_search.add_argument("--max-order", type=int, required=True, metavar="N")
    p_search.add_argument("--families", metavar="LIST",
                          help="comma-separated subset of cyclic,dihedral,dicyclic,"
                               "elementary_abelian,heisenberg,product (default all)")
    p_search.add_argument("--out", metavar="PATH", help="CSV path; a .jsonl twin is written too")
    p_search.add_argument("--skip-completed", action="store_true",
                          help="skip (family, params) already present in --out and append")
    p_search.set_defaults(fn=_cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _configure_logging()
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CrossCheckError as exc:
        print(f"theorem cross-check FAILED: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK


if __name__ == "__main__":
    sys.exit(main())
