"""One workload in one interpreter: set-up, then a timed or a traced run.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON object
as its last line of output.

Roles:
  setup    set up (import, inputs, oracle, warm-up op) and report setup_s
  measure  set up, then repeat the whole input pool, untraced, until at
           least --seconds of timed wall time and MIN_OPS ops have passed
  trace    set up, run the pool once untraced and once traced, and report
           the per-layer metrics and the tracing overhead
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_COVERAGE = 0.9
MIN_OPS = 100  # so that at least ten latencies lie beyond p90


def run_op(cli, op: workloads.Op) -> tuple[int | str, str, float]:
    """Run one op through ``palfkit.cli.main`` in process; returns
    (exit status or exception text, stdout, seconds)."""
    out = io.StringIO()
    argv = list(op.argv)
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op, not a crash of the benchmark
            status = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return status, out.getvalue(), seconds


def verify(op: workloads.Op, status, out: str) -> str | None:
    if not isinstance(status, int):
        return status
    try:
        return op.check(status, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"


class Session:
    """Imports palfkit and prepares the seeded inputs; the set-up phase."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import palfkit.cli

        src = ROOT / "src" / "palfkit"
        if Path(palfkit.cli.__file__).resolve().parent != src.resolve():
            raise SystemExit(f"palfkit imported from {palfkit.cli.__file__}, expected {src}")
        self.cli = palfkit.cli
        build, warmup = workloads.WORKLOADS[workload]
        self.pool = build(seed, workdir)
        op = warmup(workdir)
        status, out, _ = run_op(self.cli, op)
        self.warmup_error = verify(op, status, out)

    def run(self, passes: int | None = None, seconds: float = 0.0, tracer=None):
        """Repeat the pool ``passes`` times, or until ``seconds`` and MIN_OPS
        have passed; returns (wall seconds, per-op seconds, records)."""
        latencies, records = [], []
        start = perf_counter()
        done = 0
        while passes is None or done < passes:
            for i, op in enumerate(self.pool):
                if tracer is not None:
                    tracer.op = len(records)
                status, out, dt = run_op(self.cli, op)
                latencies.append(dt)
                records.append((i, status, out))
            done += 1
            if passes is None and perf_counter() - start >= seconds and len(latencies) >= MIN_OPS:
                break
        return perf_counter() - start, latencies, records

    def failures(self, records) -> list[str]:
        seen: dict[tuple, str | None] = {}
        failed = []
        for key in records:
            if key not in seen:
                seen[key] = verify(self.pool[key[0]], key[1], key[2])
            if seen[key] is not None:
                failed.append(f"{' '.join(self.pool[key[0]].argv)}: {seen[key]}")
        return failed


def measure(session: Session, seconds: float) -> dict:
    wall, latencies, records = session.run(seconds=seconds)
    failed = session.failures(records)
    ms = [x * 1000 for x in latencies]
    return {
        "attempted": len(latencies),
        "failed": len(failed),
        "failures": failed[:10],
        "wall_s": wall,
        "ops_per_s": len(latencies) / wall,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
    }


def trace(session: Session) -> dict:
    from tracer import Tracer

    untraced_wall, _, _ = session.run(passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, walls, records = session.run(passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    failed = session.failures(records)
    covered = tracer.root_seconds()
    coverage = min(covered.get(op, 0.0) / wall for op, wall in enumerate(walls))
    if coverage < MIN_COVERAGE:
        failed.append(f"top-level spans cover only {coverage:.3f} of an op's traced wall time")
    if tracer.counters.get("lefschetz.gamma_len", 0) != tracer.counters.get("lefschetz.gamma_len_expected", 0):
        failed.append("lefschetz.gamma_len differs from the sum of 14n - 4 over the mazur_family calls")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["trace.coverage_min"] = coverage
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failures": failed[:10],
        "metrics": metrics,
        "spans": tracer.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--role", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when the parent started this process")
    args = parser.parse_args()

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        session = Session(args.workload, args.seed, Path(tmp))
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if session.warmup_error is not None:
            result.update(attempted=1, failed=1, failures=[f"warm-up op: {session.warmup_error}"])
        elif args.role == "measure":
            result.update(measure(session, args.seconds))
        elif args.role == "trace":
            result.update(trace(session))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
