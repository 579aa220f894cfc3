"""Tests of the benchmark itself (not collected by the library's test suite).

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
import sympy

import oracle
import run
import tracer
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli():
    import palfkit.cli

    return palfkit.cli


def _corrupted(op: workloads.Op) -> workloads.Op:
    """The same op with a deliberately wrong expected value."""
    check = op.check
    args = list(check.args)
    if check.func is oracle.check_family:
        args[0] += 1
    elif check.func is oracle.check_alexander:
        kind, value = args[0]
        args[0] = (kind, value + 1) if kind == "ribbon" else (kind, {t: 3 * v for t, v in value.items()})
    else:
        expect = dict(args[0])
        expect["h1"] = (expect["h1"][0] + 1, expect["h1"][1])
        args[0] = expect
    return replace(op, check=partial(check.func, *args))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_oracle_accepts_palfkit_and_rejects_corruption(workload, cli, tmp_path):
    pool = workloads.WORKLOADS[workload][0](7, tmp_path)
    for op in random.Random(0).sample(pool, 6):
        status, out, _ = worker.run_op(cli, op)
        assert worker.verify(op, status, out) is None, op.argv
        assert worker.verify(_corrupted(op), status, out) is not None, op.argv


def test_corrupted_expected_value_raises_error_rate(tmp_path):
    session = worker.Session("alexander", 3, tmp_path)
    good = session.pool[:4]
    session.pool = good + [_corrupted(good[0])]
    result = worker.measure(session, seconds=0.0)
    assert result["attempted"] >= worker.MIN_OPS
    assert result["failed"] == result["attempted"] // len(session.pool)
    session.pool = good
    assert worker.measure(session, seconds=0.0)["failed"] == 0


def test_raising_op_counts_as_failed(cli):
    op = workloads.Op(("alexander", "--presentation", "x y | x"), lambda status, out: None)
    status, out, _ = worker.run_op(cli, op)
    assert status == 2  # usage error, not the status the check expects below
    bad = workloads.Op(op.argv, partial(oracle.check_alexander, ("ribbon", 1)))
    assert worker.verify(bad, status, out) is not None


def test_laurent_text_round_trip():
    from palfkit.laurent import LaurentPoly

    rng = random.Random(5)
    for _ in range(200):
        coeffs = {rng.randint(-6, 6): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 5))}
        assert oracle.parse_laurent_text(str(LaurentPoly(coeffs))) == coeffs


def test_fox_minor_matches_sympy():
    t = sympy.symbols("t")
    rng = random.Random(11)
    for rank in (2, 3, 4):
        rels = [workloads.random_relator(rng, rank, 12) for _ in range(rank - 1)]
        rows = []
        for rel in rels:
            row = [0] * rank
            prefix = 0
            for x in rel:
                if x > 0:
                    row[x - 1] += t**prefix
                    prefix += 1
                else:
                    prefix -= 1
                    row[-x - 1] -= t**prefix
            rows.append(row[:-1])
        minor = sympy.Matrix(rows).det()
        values = oracle.fox_minor_values(rank, rels)
        for t0, v in values.items():
            assert Fraction(str(minor.subs(t, t0))) == v


def test_cokernel_matches_sympy_smith_form():
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(2)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        cols = [tuple(rng.randint(-3, 3) for _ in range(nrows)) for _ in range(ncols)]
        free, torsion, rank = oracle.cokernel(cols, nrows)
        m = sympy.Matrix([[c[i] for c in cols] for i in range(nrows)])
        diag = [abs(smith_normal_form(m, domain=sympy.ZZ)[i, i]) for i in range(min(nrows, ncols))]
        nonzero = [d for d in diag if d]
        assert rank == len(nonzero) == m.rank()
        assert free == nrows - rank
        assert sorted(torsion) == sorted(d for d in nonzero if d > 1)


def test_tracer_counts_family_and_restores_functions(cli):
    import palfkit.lefschetz
    import palfkit.report

    original = palfkit.report.mazur_family
    t = tracer.Tracer()
    t.install()
    try:
        assert palfkit.cli.mazur_family is not original
        t.op = 0
        status, _, wall = worker.run_op(cli, workloads.Op(("family", "--n-max", "6", "--json"), None))
    finally:
        t.uninstall()
    assert status == 0
    assert palfkit.report.mazur_family is original and palfkit.lefschetz.mazur_family is original
    m = t.metrics()
    assert set(m) | {"trace.overhead_ratio", "trace.coverage_min"} == set(tracer.UNITS)
    assert m["lefschetz.gamma_len"] == sum(14 * n - 4 for n in range(1, 7))
    assert m["groupring.fox_derivative.calls"] == 6 * 2
    assert 0.9 <= t.root_seconds()[0] / wall <= 1.0
    total_self = sum(t.self_s.values())
    assert total_self == pytest.approx(t.root_seconds()[0], rel=1e-6)


def test_growth_exponent_of_a_power_law():
    points = [(n, 1e-6 * n**2) for n in range(1, 30)]
    assert tracer.growth_exponent(points) == pytest.approx(2.0)
    assert tracer.growth_exponent([]) == 0.0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
