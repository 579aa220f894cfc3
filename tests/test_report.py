import argparse
import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import palfkit.cli as cli
from conftest import alexander_pool_texts, palf_pool_texts
import palfkit.grammar as grammar
import palfkit.knots as knots
from palfkit.grammar import MAX_HOLES, MAX_NESTING, MAX_WORD_LETTERS, parse_monodromy
from palfkit.laurent import LaurentPoly
from palfkit.lefschetz import PALFSpec, homology, mazur_family, pi1_presentation
from palfkit.presentation import simplify_presentation
from palfkit.report import (
    build_family_report,
    palf_summary,
    report_to_json,
    report_to_text,
)
from palfkit.surface import Curve, MappingClass


def corrupt_family(n: int) -> PALFSpec:
    # replace the first vanishing cycle by a nullhomotopic one
    spec = mazur_family(n)
    bad = Curve(spec.fiber, spec.fiber.group.identity)
    return PALFSpec(spec.fiber, (bad,) + spec.cycles[1:])


def test_row_values():
    report = build_family_report(2)
    row1, row2 = report.rows
    assert row1.n == 1 and row2.n == 2
    assert row2.delta2_at_1 == 12 and row2.casson == 6
    assert row1.homology == "Z,0,0" and row1.chi == 1
    assert row1.factor == "1 - t + t^2"
    assert row1.delta == "t^-2 - 2*t^-1 + 3 - 2*t + t^2"
    assert row1.pi1 == "Trivial"
    assert all(row.closed_form_match for row in report.rows)
    assert report.all_pass


def test_conclusions():
    report = build_family_report(10)
    assert report.conclusions == {
        "boundaries_pairwise_distinct": True,
        "no_boundary_is_s3": True,
    }


def test_output_stable_across_runs():
    report1, report2 = build_family_report(4), build_family_report(4)
    assert report1.all_pass and report2.all_pass
    assert report_to_json(report1) == report_to_json(report2)
    assert report_to_text(report1) == report_to_text(report2)


def test_golden_row_json():
    report = build_family_report(1)
    assert report.all_pass
    row = json.loads(report_to_json(report))["rows"][0]
    assert row == {
        "n": 1,
        "allowable": True,
        "homology": "Z,0,0",
        "chi": 1,
        "pi1": "Trivial",
        "factor": "1 - t + t^2",
        "delta": "t^-2 - 2*t^-1 + 3 - 2*t + t^2",
        "delta2_at_1": 4,
        "casson": 2,
        "closed_form_match": True,
    }


def test_corrupted_fixture_fails():
    report = build_family_report(2, family=corrupt_family)
    assert not report.all_pass
    assert "all checks pass:              False" in report_to_text(report)
    assert not report.rows[0].allowable
    assert report.rows[0].homology != "Z,0,0"


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_family_report(0)


def test_knot_side_mismatch_reaches_report(monkeypatch, capsys):
    monkeypatch.setattr(knots, "closed_form_factor", lambda n: LaurentPoly({0: 1, 1: 1}))
    with pytest.raises(knots.CalibrationError, match="factor polynomial mismatch at n=2"):
        knots.family_invariants(2)
    report = build_family_report(2)
    assert not any(row.closed_form_match for row in report.rows)
    assert not report.all_pass
    assert cli.main(["family", "--n-max", "2"]) == 1


def test_row_palf_columns_are_the_palf_summary():
    for row in build_family_report(3).rows:
        summary = palf_summary(mazur_family(row.n))
        assert (row.allowable, row.homology, row.chi, row.pi1) == (
            summary["allowable"],
            summary["homology"],
            summary["chi"],
            summary["pi1"],
        )


# std{1,2}, std{2,3} and a curve about holes 1 and 3: a square boundary map of
# determinant 2, so H1 = Z/2
TORSION_H1_TEXT = "S(0,4); T std{1,2}; T std{2,3}; T std{1,3/o}"


def _random_curve(rng, inner):
    holes = sorted(rng.sample(range(1, inner + 1), rng.randint(1, inner)))
    sides = "".join(rng.choice("ou") for h in range(holes[0] + 1, holes[-1]) if h not in holes)
    return "std{" + ",".join(map(str, holes)) + ("/" + sides if sides else "") + "}"


def _random_run(rng, inner):
    i, j = sorted(rng.sample(range(1, inner + 2), 2))
    return _std(range(i, j))


def _random_palf_text(rng):
    # S(0,3..7); curves about any set of inner holes, some moved by twist
    # powers about runs; often exactly one cycle per generator, a square
    # boundary map, so that H1 = 0 and torsion H1 both occur
    holes = rng.randint(3, 7)
    inner = holes - 1
    entries = []
    for _ in range(rng.choice((inner, rng.randint(1, inner + 2)))):
        curve = _random_curve(rng, inner)
        if rng.random() < 0.5:
            factors = " ".join(f"(T {_random_run(rng, inner)})^{rng.choice((-2, -1, 1, 2))}"
                               for _ in range(rng.randint(1, 2)))
            curve = f"apply({factors}, {curve})"
        entries.append(f"T {curve}")
    return f"S(0,{holes}); " + "; ".join(entries)


def test_pi1_verdict_equals_the_full_search():
    # palf_summary skips the Tietze search when H1 != 0; its verdict is still
    # the one the full search gives
    rng = random.Random(1984)
    texts = [TORSION_H1_TEXT] + [_random_palf_text(rng) for _ in range(600)]
    seen = set()
    for text in texts:
        spec = parse_monodromy(text)
        h1 = homology(spec).h1
        searched = simplify_presentation(pi1_presentation(spec)).verdict
        assert palf_summary(spec)["pi1"] == searched, text
        if h1 == (0, ()):
            seen.add(("zero", searched))
        else:
            seen.add(("torsion" if h1[1] else "free", searched))
    assert {("zero", "Trivial"), ("free", "Unknown"), ("torsion", "Unknown")} <= seen
    assert homology(parse_monodromy(TORSION_H1_TEXT)).h1 == (0, (2,))


def test_pi1_search_runs_only_when_h1_is_zero(monkeypatch):
    def no_search(presentation, *args, **kwargs):
        raise AssertionError("Tietze search called")

    monkeypatch.setattr("palfkit.report.simplify_presentation", no_search)
    for text in (TORSION_H1_TEXT, "S(0,4); T std{1,2}; T std{2,3}; T std{1,2}"):
        assert homology(parse_monodromy(text)).h1 != (0, ())
        assert palf_summary(parse_monodromy(text))["pi1"] == "Unknown"
    assert homology(mazur_family(3)).h1 == (0, ())
    with pytest.raises(AssertionError, match="Tietze search called"):
        palf_summary(mazur_family(3))


def test_text_rendering_mentions_conclusions():
    report = build_family_report(2)
    text = report_to_text(report)
    assert "boundaries pairwise distinct: True" in text
    assert "all checks pass:              True" in text


# -- CLI ---------------------------------------------------------------------

def test_cli_family_exit_zero(capsys):
    assert cli.main(["family", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "all checks pass" in out


def test_cli_family_exit_one_on_corruption(monkeypatch, capsys):
    monkeypatch.setattr(cli, "mazur_family", corrupt_family)
    assert cli.main(["family", "--n-max", "2"]) == 1


def test_cli_family_json_and_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert cli.main(["family", "--n-max", "1", "--json", "--output", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["all_pass"] is True
    assert doc["conventions"]["surface"] == "S(0,4)"


# sha256 of `family --n-max N` stdout, text and --json: any change to a row,
# the conventions block or the rendering changes these bytes
FAMILY_STDOUT_SHA256 = {
    (1, False): "17226ad7d450eb92a9cfdc940a42b6f2951273c314781d48184bd99a1920a439",
    (1, True): "5048e54473da1baea281a291161ccc0fd0a0cf59039607fffcec6b61f92d6a2e",
    (7, False): "cfbb9e7a33c0f47d4e16e766e890096f4864290bc8652aec5e06db943b46088e",
    (7, True): "43196fde944c31e8782a8efca0ece9981ec65324667be2f1583f151364599445",
    (20, False): "1f8342300c254d499093a07fe7e9734f8492eff1cd25b52a8f7855b93fed6cc8",
    (20, True): "a87004d11b6d2aed1d33178f9c5b53e02da4c8480d05c87da7aa1326f5cf39b2",
    (40, False): "06b1955fbb38c5e53499b23370f02f7027e75da1d9c906a6ed605175c8ab73fb",
    (40, True): "016bfba67d6a75431d543e0f9259d658ac9c1fd6a3344c8853332a463e226d50",
}


@pytest.mark.parametrize("n_max, as_json", sorted(FAMILY_STDOUT_SHA256))
def test_cli_family_output_pinned(capsys, n_max, as_json):
    fmt = ["--json"] if as_json else []
    assert cli.main(["family", "--n-max", str(n_max)] + fmt) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_STDOUT_SHA256[n_max, as_json]


ALEXANDER_DENSE = Path(__file__).parent / "data" / "alexander_dense.txt"
ALEXANDER_STDOUT_SHA256 = "56fe271d4a5416bf9f6cdd936c8dd14c793a770780663121aca3734b5a13e0a9"


def test_cli_alexander_output_pinned(capsys):
    dense = [line.split("\t") for line in ALEXANDER_DENSE.read_text().splitlines() if not line.startswith("#")]
    assert [int(k) for k, _, _ in dense] == [7, 10, 12, 14]
    texts = [text for seed in (1, 2, 3) for text in alexander_pool_texts(seed)]
    assert len(texts) == 1200
    outputs = []
    for text in texts + [text for _, text, _ in dense]:
        assert cli.main(["alexander", "--presentation", text]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[len(texts):] == [expected + "\n" for _, _, expected in dense]
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == ALEXANDER_STDOUT_SHA256


PALF_STDOUT_SHA256 = "833be9d56b735dec0a4e17ae42b5ab679f39e946151ed39274356a3c10eb5bf1"


def _std(run):
    return "std{" + ",".join(map(str, run)) + "}"


def test_cli_palf_output_pinned(tmp_path, capsys):
    # every printed field of `palf` and `palf --json` over the seed-1 palf
    # pool, with the exit codes: any change to parsing, a field or its
    # rendering changes this hash
    texts = palf_pool_texts(1)
    assert len(texts) == 640
    source = tmp_path / "input.palf"
    digest = hashlib.sha256()
    for text in texts:
        source.write_text(text + "\n", encoding="utf-8")
        for fmt in ([], ["--json"]):
            status = cli.main(["palf", "--input", str(source)] + fmt)
            digest.update(f"{status}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == PALF_STDOUT_SHA256


def test_cli_parse_error_exit_two(capsys):
    for text, column in (("x |)", 4), ("x\u00e9 | x\u00e9", 2)):
        assert cli.main(["alexander", "--presentation", text]) == 2
        err = capsys.readouterr().err
        assert f"column {column}" in err and "Traceback" not in err


def test_cli_duplicate_generator_is_reported_at_the_duplicate(capsys):
    assert cli.main(["alexander", "--presentation", "x y x | x"]) == 2
    assert capsys.readouterr() == ("", "error: duplicate generator name (line 1, column 5)\n")


def test_cli_laurent_term_names_the_end_of_input(capsys):
    for delta in ("1 +", "t -"):
        assert cli.main(["casson", "--delta", delta, "--m", "1"]) == 2
        assert capsys.readouterr() == ("", "error: expected a term, found end of input (line 1, column 4)\n")


def test_cli_usage_error_exit_two(capsys):
    assert cli.main(["family", "--n-max", "0"]) == 2


# argv that argparse itself answers (help, or a usage error with exit 2): the
# top level, each subcommand's help, and missing, invalid and extra arguments
USAGE_ARGV = [
    [], ["-h"], ["--bogus"], ["nosuch"], ["fam"],
    ["family", "-h"], ["palf", "-h"], ["alexander", "-h"], ["casson", "-h"], ["twist", "-h"],
    ["family"], ["family", "--n-max"], ["family", "--n-max", "x"], ["family", "--n-max", "2", "extra"],
    ["family", "--n-max", "2", "--output"],
    ["palf"], ["palf", "--input"], ["palf", "--input", "f", "--bogus"], ["palf", "--input", "f", "family"],
    ["alexander"], ["alexander", "--presentation"], ["alexander", "--presentation", "x | x", "y"],
    ["casson", "--delta", "t"], ["casson", "--delta", "t", "--m", "x"],
    ["casson", "--delta", "t", "--m", "1", "--lambda0", "z"], ["casson", "--delta", "t", "--m", "1", "-h", "x"],
    ["casson", "--m", "1", "extra"],
    ["twist", "--surface", "S(0,4)"], ["twist", "--expr", "T std{1}", "--surface"],
    ["twist", "--surface", "S(0,4)", "--expr", "T", "std{1}"],
    # declined by cli._match: a bad =value, a flag given a value, a repeated
    # option, a value that starts with "-", "--" and an option as a value
    ["family", "--n-max=x"], ["family", "--json=1", "--n-max", "2"], ["family", "--n-max", "2", "--n-max"],
    ["palf", "--input", "-f"], ["alexander", "--", "x | x"], ["casson", "--delta", "t", "--m", "--lambda0", "1"],
]
# errors in which the full parser calls the subcommand action "command"
COMMAND_ERRORS = {
    "": "error: the following arguments are required: command\n",
    "nosuch": "error: argument command: invalid choice",
    "fam": "error: argument command: invalid choice",
}


def _exit_and_output(run, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        run()
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", USAGE_ARGV, ids=" ".join)
def test_cli_usage_bytes_match_full_parser(argv, monkeypatch, capsys):
    # the matcher declines every argv that argparse answers itself, so what
    # cli.main prints and its exit status are those of the full parser
    assert cli._match(argv) is None
    expected = _exit_and_output(lambda: cli._build_parser().parse_args(argv), capsys)
    assert expected[0] in (0, 2)
    assert COMMAND_ERRORS.get(" ".join(argv), "") in expected[2]
    assert _exit_and_output(lambda: cli.main(argv), capsys) == expected
    # the python -m palfkit and console-script path reads sys.argv
    monkeypatch.setattr(sys, "argv", ["palfkit"] + argv)
    assert _exit_and_output(cli.main, capsys) == expected


# option values for the argv corpus: the first list of each kind is read by
# the option's type, the second holds values that argparse or the type refuses
# and values that start with "-", which the matcher leaves to argparse
INT_VALUES = (["2", "1_0", " 7 ", "\u0663"], ["", "9" * 5000, "x y", "a=b", "family", "-1", "-x", "--json"])
TEXT_VALUES = (["x y | x", "S(0,4)", " t ", "", "a=b", "family", "T std{1}"], ["-1", "-x", "--json", "-"])


def _argv_corpus(rng: random.Random, size: int):
    """Seeded argv for every subcommand: well-formed, then sometimes mutated."""
    names = list(cli._COMMANDS)
    for _ in range(size):
        name = rng.choice(names)
        pairs = []
        for flag, options in cli._COMMANDS[name][2]:
            if not options.get("required") and rng.random() < 0.4 or rng.random() < 0.03:
                continue
            if options.get("action") == "store_true":
                pairs.append([flag])
                continue
            good, bad = INT_VALUES if options.get("type") is int else TEXT_VALUES
            value = rng.choice(good if rng.random() < 0.8 else bad)
            pairs.append([f"{flag}={value}"] if rng.random() < 0.5 else [flag, value])
        rng.shuffle(pairs)
        argv = [name] + [token for pair in pairs for token in pair]
        if rng.random() < 0.3:
            flag = rng.choice([flag for flag, _ in cli._COMMANDS[name][2] if len(flag) > 3])
            mutation = rng.choice([
                [flag[:rng.randrange(3, len(flag))]], ["-h"], ["--"], ["--json=1"], ["extra"],
                [flag, rng.choice(TEXT_VALUES[0] + INT_VALUES[0])],
            ])
            at = rng.randrange(1, len(argv) + 1)
            argv[at:at] = mutation
        yield argv


def _typed(namespace) -> dict:
    return {key: (type(value), value) for key, value in vars(namespace).items()}


def test_cli_match_agrees_with_full_parser():
    # the matcher returns argparse's Namespace or declines; it never accepts
    # what argparse refuses, and it does match a good share of the corpus
    parser = cli._build_parser()
    matched = 0
    corpus = list(_argv_corpus(random.Random(2014), 6000))
    for argv in corpus:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                expected = parser.parse_args(argv)
        except SystemExit:
            expected = None
        got = cli._match(argv)
        if got is not None:
            assert expected is not None and _typed(got) == _typed(expected), argv
            matched += 1
    assert matched >= 0.3 * len(corpus)


def test_cli_well_formed_calls_build_no_parser(tmp_path, monkeypatch, capsys):
    # the argv shapes the benchmark sends, and every subcommand with all of its
    # options in both spellings, answer the same with argparse unusable
    report = tmp_path / "report.json"
    palf_input = str(Path(__file__).parent / "data" / "family3.palf")
    full = {
        "family": [["--n-max", "2"], ["--json"], ["--output", str(report)]],
        "palf": [["--input", palf_input], ["--json"]],
        "alexander": [["--presentation", "x y | (x y)^2 x (x y)^-2 y^-1"]],
        "casson": [["--delta", "t^-1 - 1 + t"], ["--m", "2"], ["--lambda0", "5"]],
        "twist": [["--surface", "S(0,4)"], ["--expr", "(Tg Tb)^2"]],
    }
    calls = [
        ["family", "--n-max", "3", "--json"],
        ["palf", "--input", palf_input, "--json"],
        ["alexander", "--presentation", "x y | (x y)^2 x (x y)^-2 y^-1"],
    ]
    for name, pairs in full.items():
        calls.append([name] + [token for pair in pairs for token in pair])
        calls.append([name] + ["=".join(pair) for pair in pairs])

    def run_all():
        results = []
        for argv in calls:
            status = cli.main(argv)
            results.append((status, capsys.readouterr().out, report.read_text() if report.exists() else None))
            report.unlink(missing_ok=True)
        return results

    expected = run_all()
    assert all(status == 0 for status, _, _ in expected)

    def no_parser(*args, **kwargs):
        raise AssertionError("a well-formed call built an argparse parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    assert run_all() == expected


def test_cli_family_n_max_ceiling(monkeypatch, capsys):
    def must_not_run(n, family):
        raise AssertionError("report built before --n-max was checked")

    monkeypatch.setattr(cli, "build_family_report", must_not_run)
    assert cli.main(["family", "--n-max", str(cli.MAX_FAMILY_N + 1)]) == 2
    err = capsys.readouterr().err
    assert f"error: --n-max must be at most {cli.MAX_FAMILY_N}" in err
    assert "Traceback" not in err

    asked = []

    def small_report(n, family):
        asked.append(n)
        return build_family_report(1, family=family)

    monkeypatch.setattr(cli, "build_family_report", small_report)
    assert cli.MAX_FAMILY_N == 500
    assert cli.main(["family", "--n-max", "500"]) == 0
    assert asked == [500]


def test_cli_alexander_fox_ceiling(monkeypatch, capsys):
    # 22 characters whose Fox derivatives would hold 5,000,050,000 prefix
    # letters: refused before the library is called
    def must_not_run(presentation, weights):
        raise AssertionError("Fox matrix built before its size was checked")

    monkeypatch.setattr(cli, "alexander_from_presentation", must_not_run)
    text = "x y | x^50000 y^-50000"
    assert len(text) == 22
    start = time.perf_counter()
    assert cli.main(["alexander", "--presentation", text]) == 2
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err == f"error: the Fox derivatives would hold 5000050000 prefix letters, more than {cli.MAX_FOX_PREFIX_LETTERS}\n"

    # the largest pinned input, the ribbon relator at n = 480, is far inside
    asked = []
    monkeypatch.setattr(cli, "alexander_from_presentation", lambda p, weights: asked.append(p) or LaurentPoly.one())
    assert cli.main(["alexander", "--presentation", "x y | (x y)^480 x (x y)^-480 y^-1"]) == 0
    assert [len(r) for r in asked[0].relators] == [1922]
    assert 10 * 1922 * 1923 // 2 < cli.MAX_FOX_PREFIX_LETTERS


def test_cli_alexander_dense_presentation(capsys):
    # k = 11 generators a0..a10 and 10 relators: relator i is a0 ... a10
    # followed by the inverses of all 11 generators starting at a(i+1); 1,054
    # characters.  A cofactor determinant takes k! steps per minor here.
    k = 11
    names = [f"a{i}" for i in range(k)]
    relators = [" ".join(names + [f"{names[(i + 1 + j) % k]}^-1" for j in range(k)]) for i in range(k - 1)]
    text = " ".join(names) + " | " + ", ".join(relators)
    assert len(text) == 1054
    start = time.perf_counter()
    assert cli.main(["alexander", "--presentation", text]) == 0
    # a regression canary, not a speed target: the run takes well under a
    # second, while a k! cofactor expansion ran for more than 120 s
    assert time.perf_counter() - start < 60.0
    t = LaurentPoly.t()
    assert capsys.readouterr().out == f"{(1 - t) * (1 - t ** 9) * (1 - t ** 11) ** 8}\n"


def test_cli_alexander(capsys):
    assert cli.main(["alexander", "--presentation", "x y | (x y) x (x y)^-1 y^-1"]) == 0
    assert capsys.readouterr().out.strip() == "1 - t + t^2"


def test_cli_casson(capsys):
    rc = cli.main(["casson", "--delta", "t^-2 - 2*t^-1 + 3 - 2*t + t^2", "--m", "1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"
    rc = cli.main(["casson", "--delta", "t^-1 - 1 + t", "--m", "2", "--lambda0", "5"])
    assert capsys.readouterr().out.strip() == "7"


def test_cli_casson_prints_an_answer_longer_than_the_int_string_limit(capsys):
    # every literal is within CPython's 4,300-digit limit, but the answer
    # N^2 has 8,000 digits; it is printed exactly and the limit stays as set
    n = 10 ** 4000 - 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc = cli.main(["casson", "--delta", f"{n}*t^-1 + 1 - {2 * n} + {n}*t", "--m", str(n)])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert out == "9" * 3999 + "8" + "0" * 3999 + "1\n"


def test_cli_twist(capsys):
    assert cli.main(["twist", "--surface", "S(0,4)", "--expr", "Tb"]) == 0
    out = capsys.readouterr().out
    assert "x1 -> x1 x2 x1 x2^-1 x1^-1" in out
    assert "x3 -> x3" in out


def test_cli_twist_about_an_unsupported_curve_is_a_positioned_parse_error(tmp_path, capsys):
    # a twist factor whose curve word is not a run, directly or as the base
    # of an image, is a ParseError at the curve token: exit 2, no traceback
    source = tmp_path / "skipped.palf"
    source.write_text("S(0,4);\n  T apply(T std{1,3/u}, std{1,2})\n")
    for argv, word, position in (
        (["twist", "--surface", "S(0,4)", "--expr", "Ta T std{1,3/o}"], "x1 x2 x3 x2^-1", "line 1, column 6"),
        (["palf", "--input", str(source)], "x1 x3", "line 2, column 13"),
        (["twist", "--surface", "S(0,4)", "--expr", "T apply(Tb, std{1,3/o})"], "x1 x2 x3 x2^-1", "line 1, column 3"),
    ):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: no direct twist about {word}: its word is not a run xa ... xb ({position})\n"


def test_cli_twist_refuses_an_unsupported_image_base_before_composing(monkeypatch, capsys):
    # the base of an image is twisted before its factors are multiplied, so
    # an unsupported base is refused with power and compose refused in every
    # palfkit module that binds them: the same exit status and stderr bytes
    def refuse(*args):
        raise AssertionError("a map was powered or composed")

    for module in [m for name, m in sys.modules.items() if name.startswith("palfkit.")]:
        for name in ("power", "compose"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert cli.main(["twist", "--surface", "S(0,4)", "--expr", "T apply(Tg^5 Tb^-3, std{1,3/o})"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no direct twist about x1 x2 x3 x2^-1: its word is not a run xa ... xb (line 1, column 3)\n"


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["family3", "grid_h1_z", "runs_s07", "images_s05", "shared_s04"])
def test_cli_palf_data_files_pinned(name, capsys):
    # the tests/data palf inputs against their pinned text and JSON bytes
    for fmt, suffix in (([], ".out"), (["--json"], ".json")):
        assert cli.main(["palf", "--input", str(DATA / f"{name}.palf")] + fmt) == 0
        assert capsys.readouterr().out == (DATA / f"{name}.palf{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, surface, expr",
    [
        ("twist_tg_tb_squared", "S(0,4)", "(Tg Tb)^2"),
        ("twist_s08_runs", "S(0,8)", "(T std{2,3,4})^-2 T std{1,2,3,4,5,6,7}"),
        ("twist_s05_image", "S(0,5)", "T apply(T std{3,4} (T std{1,2})^-2, std{2,3}) T std{1,2,3}"),
    ],
)
def test_cli_twist_data_files_pinned(name, surface, expr, capsys):
    assert cli.main(["twist", "--surface", surface, "--expr", expr]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.out").read_text(encoding="utf-8")


def _no_step(phi, word):
    raise AssertionError("a curve word was stepped")


def test_cli_palf_huge_power_on_an_h1_nonzero_input(tmp_path, capsys, monkeypatch):
    # H1 = Z, so pi1 is not searched and the image's class comes from its
    # base: (Tg Tb)^(10^12) takes no step and prints the bytes of (Tg Tb)^1
    outputs = {}
    for k in (1, 10**12):
        source = tmp_path / f"power{k}.palf"
        source.write_text(f"S(0,4); T std{{1}}; T apply((Tg Tb)^{k}, std{{2,3}})\n")
        if k > 1:
            monkeypatch.setattr(MappingClass, "__call__", _no_step)
        outputs[k] = []
        for fmt in ([], ["--json"]):
            assert cli.main(["palf", "--input", str(source)] + fmt) == 0
            outputs[k].append(capsys.readouterr())
    assert outputs[10**12] == outputs[1]
    assert "homology: Z,Z,0" in outputs[1][0].out


def test_cli_palf(tmp_path, capsys):
    source = tmp_path / "family3.palf"
    source.write_text("S(0,4); T std{1}; T std{1,2}; T apply((Tg Tb)^3, std{2,3})\n")
    assert cli.main(["palf", "--input", str(source), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["homology"] == "Z,0,0"
    assert doc["boundary_homology_sphere"] is True
    assert doc["pi1"] == "Trivial"
    assert doc["cycles"] == 3


def test_cli_palf_text_output(tmp_path, capsys):
    source = tmp_path / "pair.palf"
    source.write_text("S(0,4); T std{1,2}; T std{1,3/o}\n")
    assert cli.main(["palf", "--input", str(source)]) == 0
    out = capsys.readouterr().out
    assert "allowable: True" in out
    assert "homology: Z,0,0" not in out  # two cycles cannot kill H1


def test_cli_casson_rejects_bad_polynomial(capsys):
    assert cli.main(["casson", "--delta", "t - 1", "--m", "1"]) == 2
    assert cli.main(["casson", "--delta", "t + )", "--m", "1"]) == 2


def test_cli_alexander_rejects_wrong_deficiency(capsys):
    assert cli.main(["alexander", "--presentation", "x y | x y x^-1 y^-1, x^2"]) == 2


def test_cli_alexander_deep_nesting_exit_two(capsys):
    depth = 3000
    text = "x | " + "(" * depth + "x" + ")" * depth
    assert cli.main(["alexander", "--presentation", text]) == 2
    err = capsys.readouterr().err
    assert f"nesting deeper than {MAX_NESTING} levels" in err
    assert "Traceback" not in err


def test_cli_palf_deep_nesting_exit_two(tmp_path, capsys):
    depth = 2000
    source = tmp_path / "deep.palf"
    source.write_text("S(0,4); T apply(" + "(" * depth + "Tg" + ")" * depth + ", std{2,3})\n")
    assert cli.main(["palf", "--input", str(source)]) == 2
    err = capsys.readouterr().err
    assert f"nesting deeper than {MAX_NESTING} levels" in err
    assert "Traceback" not in err


def test_cli_alexander_huge_exponent_exit_two(capsys):
    tracemalloc.start()
    try:
        status = cli.main(["alexander", "--presentation", "x y | x^1000000000000 y^-1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 2
    assert peak < 1_000_000  # refused before the power is expanded
    err = capsys.readouterr().err
    assert f"longer than {MAX_WORD_LETTERS} letters" in err
    assert "Traceback" not in err


def test_cli_missing_file(tmp_path):
    assert cli.main(["palf", "--input", str(tmp_path / "absent.palf")]) == 2


def test_cli_subprocess_entrypoint():
    result = subprocess.run(
        [sys.executable, "-m", "palfkit", "family", "--n-max", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["all_pass"] is True


def test_cli_huge_surface_exit_two(tmp_path, capsys, monkeypatch):
    real = grammar.PlanarSurface

    def checked_first(holes):
        # fail here, not after an unbounded allocation, if the limit is skipped
        assert holes <= MAX_HOLES, "surface built before the hole limit was checked"
        return real(holes)

    monkeypatch.setattr(grammar, "PlanarSurface", checked_first)
    header = "S(0,1000000000000)"
    source = tmp_path / "huge.palf"
    source.write_text(header + "; T std{1}\n")
    for argv in (["twist", "--surface", header, "--expr", "T std{1}"], ["palf", "--input", str(source)]):
        tracemalloc.start()
        try:
            status = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 2
        assert peak < 1_000_000
        err = capsys.readouterr().err
        assert f"more than {MAX_HOLES} holes" in err
        assert "Traceback" not in err


def test_cli_out_of_memory_exit_two(tmp_path, monkeypatch, capsys):
    # a command that runs out of memory exits 2 with one line on stderr, the
    # status of the size caps; nested image twists can still get there
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_mapping_class", exhausted)
    monkeypatch.setattr(cli, "parse_monodromy", exhausted)
    source = tmp_path / "one.palf"
    source.write_text("S(0,4); T std{1}\n")
    for argv in (["twist", "--surface", "S(0,4)", "--expr", "T std{1}"], ["palf", "--input", str(source)]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: out of memory\n")
        assert "Traceback" not in err
