"""Command-line interface: analyze / spectrum / export / verify / search.

Exit codes: 0 success, 1 usage or input error, 2 a theorem cross-check
failed. Logging level comes from THETA_LOG (error|warn|info|debug).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import json
import logging
import os
import sys
import time

from . import groups, verify
from .analysis import analyze_group, spectrum_section
from .graph import _json_text, build_theta, dot_pieces, json_pieces, prime_order_set
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

# product(...) selectors nest at most this deep, which keeps the parser's recursion
# bounded; a product of more than 12 non-trivial factors is over MAX_ELEMENTS anyway
_MAX_PRODUCT_NESTING = 32

SEARCH_CSV_HEADER = ["family", "params", "order", "complete", "kappa", "s_size", "class", "ms"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    """Bad input or an unusable output path; main prints it and exits with EXIT_USAGE."""


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
        raise UsageError(f"THETA_LOG must be one of error|warn|info|debug, got {level_name!r}")
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
        raise UsageError(f"cannot read custom group file: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise UsageError(f"custom group file is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "labels" not in doc or "orders" not in doc:
        raise UsageError('custom group file must be {"labels": [...], "orders": [...]}')
    labels, orders = doc["labels"], doc["orders"]
    if not isinstance(labels, list) or not isinstance(orders, list):
        raise UsageError('custom group "labels" and "orders" must be JSON arrays')
    for x in orders:
        if not isinstance(x, int) or isinstance(x, bool):
            raise UsageError(f"custom group orders must be integers, got {json.dumps(x)}")
    try:
        return groups.from_orders([str(x) for x in labels], orders)
    except ValueError as exc:
        raise UsageError(f"invalid custom group: {exc}")


def _product(text: str, left: groups.GroupSpec, right: groups.GroupSpec) -> groups.GroupSpec:
    try:
        return groups.direct_product(left, right)
    except ValueError as exc:
        raise UsageError(f"invalid selector {text!r}: {exc}")


def parse_selector(text: str) -> groups.GroupSpec:
    """Compact selector syntax, mirroring the constructors:

    cyclic:N  dihedral:N  dicyclic:N  elem-abelian:P:M  heisenberg:P
    custom:PATH  product(SEL,SEL)  -- products nest.
    """
    text = text.strip()
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product(") : -1]
        depth = deepest = 0
        split_at = -1
        for k, ch in enumerate(inner):
            if ch == "(":
                depth += 1
                deepest = max(deepest, depth)
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0 and split_at < 0:
                split_at = k
        if deepest >= _MAX_PRODUCT_NESTING:
            raise UsageError(f"product selector nests more than {_MAX_PRODUCT_NESTING} deep")
        if split_at < 0:
            raise UsageError(f"malformed product selector: {text!r}")
        return _product(text, parse_selector(inner[:split_at]), parse_selector(inner[split_at + 1 :]))
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
    except UsageError:
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid selector {text!r}: {exc}")
    raise UsageError(f"unknown selector {text!r}")


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
        raise UsageError("exactly one group selector flag is required")
    name = chosen[0]
    value = getattr(args, name)
    if name == "elem_abelian":
        return parse_selector("elem-abelian:{}:{}".format(*value))
    if name == "product":  # each operand on its own, so a custom: path may hold a comma
        return _product("product({},{})".format(*value), *map(parse_selector, value))
    return parse_selector(f"{name}:{value}")


@contextlib.contextmanager
def _writer(out_path: str | None, append: bool = False):
    """The one output path of every command: stdout, or the file written over or appended to.
    A reader that closes the pipe early ends the writing quietly and the command keeps its
    exit code; any other OSError is exit 1."""
    try:
        with (contextlib.nullcontext(sys.stdout) if out_path is None
              else open(out_path, "a" if append else "w", encoding="utf-8", newline="")) as fh:
            yield fh
            fh.flush()
    except BrokenPipeError:  # the reader left early (``| head``); flush what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}")


def _emit(pieces, out_path: str | None) -> None:
    """Write the text pieces, one after another, to the file or to stdout."""
    with _writer(out_path) as fh:
        fh.writelines(pieces)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    if args.budget < 0:
        raise UsageError("--budget must be at least 0")
    g = _group_from_args(args)
    report = analyze_group(
        g, hamiltonian_budget=args.budget, timestamp=not args.no_timestamp
    )
    _emit((_json_text(report) + "\n",), args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = _group_from_args(args)
    section = spectrum_section(build_theta(g))
    _emit((_json_text(section) + "\n",), args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    t = build_theta(_group_from_args(args))
    pieces = (dot_pieces if args.format == "dot" else json_pieces)(t)
    seconds, size = 0.0, 0

    def counted():
        """The pieces, each timed while it is made and counted as it goes to the writer."""
        nonlocal seconds, size
        while True:
            started = time.perf_counter()
            piece = next(pieces, None)
            seconds += time.perf_counter() - started
            if piece is None:
                return
            size += len(piece) if piece.isascii() else len(piece.encode("utf-8"))  # isascii is O(1)
            yield piece

    _emit(counted(), args.out)
    log.debug(
        "export %s: %d vertices, %d edges, %d bytes, %.4f s serialising",
        args.format, t.n_vertices, t.edge_count, size, seconds,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    builder = verify.corrupting_builder if args.corrupt else build_theta
    results = verify.run_suite(args.suite, build=builder)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        lines.append(f"{r.name:<{width}}  cases={r.cases:<5d} {'PASS' if r.ok else 'FAIL'}\n")
        lines += [f"    {failure}\n" for failure in r.failures[:10]]
        if len(r.failures) > 10:
            lines.append(f"    ... {len(r.failures) - 10} more failures\n")
    all_ok = all(r.ok for r in results)
    lines.append(f"verify: {'all checks passed' if all_ok else 'FAILURES detected'}\n")
    _emit(lines, None)
    return EXIT_OK if all_ok else EXIT_CROSSCHECK


def _completed_rows(path: str) -> set[tuple[str, str]] | None:
    """(family, params) of every row of the search CSV at ``path``; None if it is missing or empty."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                return None
            if reader.fieldnames != SEARCH_CSV_HEADER:
                raise UsageError(f"{path} is not a search CSV: its header is not "
                                  + ",".join(SEARCH_CSV_HEADER))
            return {(row["family"], row["params"]) for row in reader}
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _cmd_search(args) -> int:
    if args.max_order < 3:
        raise UsageError("--max-order must be at least 3")
    if args.skip_completed and args.out is None:
        raise UsageError("--skip-completed needs --out")
    families = [f.strip() for f in args.families.split(",")] if args.families else groups.FAMILIES
    try:
        candidates = groups.enumerate_groups(args.max_order, families)
    except ValueError as exc:
        raise UsageError(str(exc))

    done = _completed_rows(args.out) if args.skip_completed else None
    appending = done is not None
    summary: collections.Counter[str] = collections.Counter()
    with _writer(args.out, appending) as out, (
        contextlib.nullcontext() if args.out is None
        else _writer(args.out.removesuffix(".csv") + ".jsonl", appending)
    ) as jsonl:
        rows = csv.DictWriter(out, fieldnames=SEARCH_CSV_HEADER)
        if not appending:
            rows.writeheader()
        for order, family, params, g in candidates:
            if appending and (family, params) in done:
                continue
            started = time.perf_counter()
            t = build_theta(g)
            record = {
                "family": family,
                "params": params,
                "order": order,
                "complete": is_complete(t),
                "kappa": vertex_connectivity(t).kappa,
                "s_size": len(prime_order_set(t)),
                "class": open_problem_classify(t),
            }
            record["ms"] = int(round((time.perf_counter() - started) * 1000))
            # each row reaches the file as soon as it is made, so a stopped sweep can resume
            rows.writerow(record)
            out.flush()
            if jsonl is not None:
                jsonl.write(json.dumps(record) + "\n")
                jsonl.flush()
            summary[record["class"]] += 1
        counts = ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
        print(f"search summary: {counts} (total {summary.total()})", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    each ``_cmd_*`` looks up what it calls when it runs."""
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
                          help=f"comma-separated subset of {','.join(groups.FAMILIES)} (default all)")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CrossCheckError as exc:
        print(f"theorem cross-check FAILED: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK


if __name__ == "__main__":
    sys.exit(main())
