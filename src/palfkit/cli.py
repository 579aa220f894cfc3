"""Command-line interface.

A well-formed call is read straight from the ``_COMMANDS`` table into the
Namespace argparse would return (``_match``).  Every other argv (help,
abbreviations, ``--``, repeated or unknown options, bad values, missing
options) is declined and goes to the full argparse parser, built anew for the
call, so all help, usage and error text and its exit status come from argparse.

Exit status: 0 on success, 1 when a family verification fails, 2 on
usage or parse errors and when memory runs out (``error: out of memory``).
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from pathlib import Path

from .grammar import parse_laurent, parse_mapping_class, parse_monodromy, parse_presentation, parse_surface
from .knots import NormalizedAlexander, alexander_from_presentation, casson_surgery
from .lefschetz import mazur_family
from .report import build_family_report, palf_summary, report_to_json, report_to_text

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2

# Largest accepted ``family --n-max``: it bounds a run's work, and 500 is the
# largest report size the project sets performance targets for.  Row n's Fox
# rows cost O(n) interpreted steps plus C-level prefix slices, and f(t) f(1/t)
# is one packed integer product: ``build_family_report`` took 0.09 / 0.28-0.35
# / 1.46-1.59 s at N = 60 / 120 / 240 (in process, medians of 5 / 5 / 3 calls,
# two runs, CPython 3.11.7, one core of a shared two-core Intel Xeon VM).
MAX_FAMILY_N = 500

# Largest accepted sum over relators r of |r| (|r| + 1) / 2 for ``alexander``,
# the letters of the prefixes its Fox derivatives hold: ``x y | x^k y^-k`` at 8
# / 18 / 32 million took 0.24 / 0.62 / 1.10 s and 62 / 120 / 200 MB peak RSS in
# process on the VM above.  The ribbon relator at n = 480 has 1,848,003.
MAX_FOX_PREFIX_LETTERS = 20_000_000


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
    letters = sum(len(r) * (len(r) + 1) // 2 for r in presentation.relators)
    if letters > MAX_FOX_PREFIX_LETTERS:
        raise ValueError(f"the Fox derivatives would hold {letters} prefix letters, more than {MAX_FOX_PREFIX_LETTERS}")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palfkit",
        description="Exact invariants of planar Lefschetz fibrations and the standard Mazur-type family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _match(argv: list[str]) -> argparse.Namespace | None:
    """``_build_parser().parse_args(argv)`` for a well-formed call, else None.

    Accepted: a subcommand name, then its exact long options, each at most
    once, as ``--opt value`` or ``--opt=value`` (a store_true flag bare), with
    no value starting with "-" or refused by the option's ``type``, and every
    required option present.  Argparse reads such an argv the same way; a
    missing option takes argparse's default, under argparse's dest."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = dict(_COMMANDS[argv[0]][2])
    values = {}
    rest = iter(argv[1:])
    for token in rest:
        flag, eq, value = token.partition("=")
        options = rows.get(flag)
        if options is None or flag in values:
            return None
        if options.get("action") == "store_true":
            if eq:
                return None
            values[flag] = True
            continue
        value = value if eq else next(rest, "-")
        if value.startswith("-"):
            return None
        try:
            values[flag] = options.get("type", str)(value)
        except (TypeError, ValueError):
            return None
    namespace = argparse.Namespace(command=argv[0])
    for flag, options in rows.items():
        if flag not in values and options.get("required"):
            return None
        default = options.get("default", False if options.get("action") == "store_true" else None)
        setattr(namespace, flag[2:].replace("-", "_"), values.get(flag, default))
    return namespace


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv) or _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
