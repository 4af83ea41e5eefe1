"""Command-line front end for ``repro lint``.

Exit codes: ``0`` clean, ``1`` violations (or unparseable files) found,
``2`` the tool itself was misused (broken ``[tool.repro-lint]`` table,
unknown ``--rule`` selector).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

_DEFAULT_PATHS = ("src", "tests", "benchmarks")


def build_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(prog="repro lint")
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests benchmarks, "
        "whichever exist)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="terse CI mode: one line per violation, no summary line",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the report as JSON (schema version 1)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="RPLxxx",
        help="only report this rule code or family (RPL203 or RPL2xx); "
        "repeatable",
    )
    return parser


def _default_paths() -> List[Path]:
    existing = [Path(name) for name in _DEFAULT_PATHS if Path(name).is_dir()]
    return existing or [Path(".")]


def run(args: argparse.Namespace) -> int:
    # every ``repro`` process builds this parser; only ``repro lint``
    # loads the rule engine
    from .config import LintConfigError
    from .engine import run_lint

    paths = [Path(p) for p in args.paths] or _default_paths()
    try:
        report = run_lint(paths, rules=args.rule)
    except (LintConfigError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(report.render_json())
    else:
        text = report.render_text(verbose=not args.check)
        if text:
            print(text)
    return 0 if report.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
