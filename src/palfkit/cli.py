"""Command-line interface.

Each call builds the parser anew, with only the subcommand named by its first
argument; help, no arguments and an unknown name get the full parser.  The
messages and exit status are those of the full parser either way.

Exit status: 0 on success, 1 when a family verification fails, 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from pathlib import Path
from typing import Iterable

from .grammar import ParseError, parse_laurent, parse_mapping_class, parse_monodromy, parse_presentation, parse_surface
from .knots import NormalizedAlexander, alexander_from_presentation, casson_surgery
from .lefschetz import mazur_family
from .report import build_family_report, palf_summary, report_to_json, report_to_text

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2

# Largest accepted ``family --n-max``: it bounds a run's work, and 500 is the
# largest report size the project sets performance targets for.  Row n's Fox
# rows cost O(n) interpreted steps plus C-level prefix slices, but the Laurent
# product in ``fox_milnor_compose`` is O(n^2): ``build_family_report`` took
# 0.17-0.19 s at N = 60 and 0.84 s at N = 120 (median of five, two runs,
# CPython 3.11.7, one core of a shared two-core Intel Xeon VM).
MAX_FAMILY_N = 500


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        print(text)
    else:
        output.write_text(text + "\n", encoding="utf-8")


def _cmd_family(args) -> int:
    if args.n_max < 1:
        print("error: --n-max must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.n_max > MAX_FAMILY_N:
        print(f"error: --n-max must be at most {MAX_FAMILY_N}", file=sys.stderr)
        return EXIT_USAGE
    report = build_family_report(args.n_max, family=mazur_family)
    _emit(report_to_json(report) if args.json else report_to_text(report), args.output)
    if not report.all_pass:
        failing = [row.n for row in report.rows if not row.passes]
        print(f"error: family verification failed at n = {failing}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_palf(args) -> int:
    fields = palf_summary(parse_monodromy(args.input.read_text(encoding="utf-8")))
    if args.json:
        print(json.dumps(fields, indent=2, sort_keys=True))
    else:
        for key, value in fields.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_alexander(args) -> int:
    presentation = parse_presentation(args.presentation)
    poly = alexander_from_presentation(presentation, [1] * presentation.rank)
    print(poly)
    return EXIT_OK


def _cmd_casson(args) -> int:
    delta = NormalizedAlexander.from_laurent(parse_laurent(args.delta))
    # str(int) refuses past sys.get_int_max_str_digits(); Decimal's does not
    print(decimal.Decimal(casson_surgery(args.lambda0, args.m, delta)))
    return EXIT_OK


def _cmd_twist(args) -> int:
    surface = parse_surface(args.surface)
    phi = parse_mapping_class(args.expr, surface)
    for name, image in zip(surface.group.names, phi.images):
        print(f"{name} -> {image}")
    return EXIT_OK


# Subcommand name -> (handler, help, arguments as (flag, keyword arguments)),
# in the order the full parser lists them.
_COMMANDS = {
    "family": (_cmd_family, "verify the family against its closed forms", (
        ("--n-max", dict(type=int, required=True, metavar="N",
                         help=f"check the members n = 1..N, 1 <= N <= {MAX_FAMILY_N}")),
        ("--json", dict(action="store_true", help="emit the JSON report")),
        ("--output", dict(type=Path, default=None, help="write the report to a file")),
    )),
    "palf": (_cmd_palf, "invariants of a monodromy description", (
        ("--input", dict(type=Path, required=True, metavar="FILE")),
        ("--json", dict(action="store_true")),
    )),
    "alexander": (_cmd_alexander, "Alexander polynomial of a deficiency-one presentation", (
        ("--presentation", dict(required=True, metavar="STR")),
    )),
    "casson": (_cmd_casson, "Casson invariant after 1/m surgery", (
        ("--delta", dict(required=True, metavar="STR", help="normalized Alexander polynomial")),
        ("--m", dict(type=int, required=True)),
        ("--lambda0", dict(type=int, default=0, help="Casson invariant of the starting sphere")),
    )),
    "twist": (_cmd_twist, "evaluate a mapping-class expression", (
        ("--surface", dict(required=True, metavar="S(0,r)")),
        ("--expr", dict(required=True, metavar="EXPR")),
    )),
}


def _build_parser(names: Iterable[str] = _COMMANDS) -> argparse.ArgumentParser:
    """The top-level parser with a subparser for each of ``names``.

    Without every subcommand, a metavar keeps all of them in the usage line of
    top-level errors.  The full parser leaves it unset, as it also renames the
    action in "invalid choice" and "required" errors."""
    parser = argparse.ArgumentParser(
        prog="palfkit",
        description="Exact invariants of planar Lefschetz fibrations and the standard Mazur-type family.",
    )
    every = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if list(names) == list(_COMMANDS) else every)
    for name in names:
        _, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
