"""Command line driver: list catalog entries, validate input files, and run
the pipeline on catalog entries or user files."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import catalog
from .model import ParseError, ProjectionData, parse_projection_data, validate
from .report import (
    EXIT_USAGE,
    EXIT_VALIDATION,
    compute_report,
    render_table,
)


def _max_classes() -> int | None:
    raw = os.environ.get("PATCOH_MAX_CLASSES")
    if raw is None:
        return None
    try:
        value = int(raw)
        if value < 1:
            raise ValueError("the cap must be at least 1")
    except ValueError:
        print(f"patcoh: bad PATCOH_MAX_CLASSES value {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return value


def _resolve_source(source: str) -> ProjectionData | None:
    """The data of a catalog entry or of a UTF-8 input file; None, with the
    reason on stderr, when there is neither or the file cannot be read or
    does not parse."""
    if source in catalog.names():
        return catalog.build(source).data
    path = Path(source)
    if not path.is_file():
        print(f"patcoh: unknown catalog entry or missing file {source!r}",
              file=sys.stderr)
        return None
    try:
        return parse_projection_data(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"patcoh: cannot read {source}: {exc}", file=sys.stderr)
    except (ParseError, UnicodeDecodeError) as exc:
        print(f"patcoh: parse error in {source}: {exc}", file=sys.stderr)
    return None


def cmd_list(args) -> int:
    entries = catalog.catalog()
    if args.json:
        doc = [{"name": e.name, "description": e.description}
               for e in entries.values()]
        print(json.dumps(doc, indent=2))
    else:
        width = max(len(n) for n in entries)
        for e in entries.values():
            print(f"{e.name.ljust(width)}  {e.description}")
    return 0


def cmd_compute(args) -> int:
    data = _resolve_source(args.source)
    if data is None:
        return EXIT_USAGE
    doc, code = compute_report(data, dump_arrangement=args.dump_arrangement,
                               max_classes=_max_classes())
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_table(doc))
        if doc["status"] == "validation_error":
            for f in doc["validation"]["findings"]:
                print(f"  {f['severity']}: [{f['code']}] {f['message']}")
        elif doc["status"] == "infinite":
            print(f"  {doc['diagnostics']['message']}")
            print(f"  witness: level {doc['diagnostics']['witness_level']}, "
                  f"pair {tuple(doc['diagnostics']['witness_pair'])}, "
                  f"subgroup rank {doc['diagnostics']['deficient_subgroup_rank']}"
                  f" < {doc['diagnostics']['full_rank']}")
    return code


def cmd_validate(args) -> int:
    data = _resolve_source(args.source)
    if data is None:
        return EXIT_USAGE
    rep = validate(data)
    for f in rep.findings:
        print(f"{f.severity}: [{f.code}] {f.message}")
    if rep.ok:
        print("ok")
        return 0
    return EXIT_VALIDATION


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="patcoh",
        description="Cohomology and K-group ranks of projection point patterns "
        "by exact orbit enumeration of singular subspaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list built-in data sets")
    p_list.add_argument("--json", action="store_true", help="machine output")
    p_list.set_defaults(func=cmd_list)

    p_comp = sub.add_parser("compute", help="run the full pipeline")
    p_comp.add_argument("source", help="catalog name or input file path")
    fmt = p_comp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the JSON report")
    fmt.add_argument("--table", action="store_true",
                     help="human table (default)")
    p_comp.add_argument("--dump-arrangement", action="store_true",
                        help="include per-class direction/stabilizer data (JSON)")
    p_comp.set_defaults(func=cmd_compute)

    p_val = sub.add_parser("validate", help="validate an input file or catalog entry")
    p_val.add_argument("source", help="catalog name or input file path")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
