"""palfkit benchmark: three workloads through ``palfkit.cli.main``, measured
end to end (untraced) or per layer (traced).

Run from the repository root:

    python3 perfbench/run.py --workload family --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``family`` (``palfkit family --n-max N
--json``), ``alexander`` (``palfkit alexander --presentation STR``) and
``palf`` (``palfkit palf --input FILE --json``).  ``all`` runs the three
one after another and prints every metric of each.

Load model: a closed loop with one client.  Each workload runs in fresh
interpreters started here, one at a time, with one thread; each op is
issued when the previous one has returned.  palfkit receives only the
generated text; ``--seed`` fixes the inputs.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the time from
starting an interpreter to its first timed op (``import palfkit``, input
generation, oracle precomputation and one untimed warm-up op), taken as the
median over SETUP_SAMPLES interpreters.  The last of them then repeats its
whole input pool until at least ``--seconds`` of timed wall time and
MIN_OPS ops have passed, and reports throughput, latency percentiles and
its peak resident memory.  ``--trace 1`` runs the pool once untraced and
once with spans at palfkit's module boundaries and reports the per-layer
metrics.

Every output is checked against an expected value computed without
palfkit (``oracle.py``).  An op that raises, exits with an unexpected
status or fails its check counts in ``failed``; error_rate is
failed / attempted.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
with the run's metadata is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src" / "palfkit"
OUT_DIR = BENCH_DIR / "out"

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # one workload must finish well inside three minutes


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, role: str, deadline: float) -> dict:
    """Run one worker interpreter and return its JSON result."""
    # every interpreter compiles palfkit from source, so set-up costs the same in every run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--role", role]
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {role} worker did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {role} worker failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Returns (result for the JSON line, extra detail for the results file)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if traced:
        res = spawn(workload, seed, seconds, "trace", deadline)
        metrics = {name: res["metrics"][name] for name in tracer.UNITS} if "metrics" in res else {}
        units = tracer.UNITS
        detail = {"spans": res.get("spans", [])}
        failures = res.get("failures", [])
        attempted, failed = res.get("attempted", 1), res.get("failed", 1)
    else:
        probes = [spawn(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(workload, seed, seconds, "measure", deadline)
        runs = probes + [res]
        metrics = {
            name: res[name] for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb") if name in res
        }
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        units = E2E_UNITS
        failures = [f for r in runs for f in r.get("failures", [])]
        attempted = sum(r.get("attempted", 0) for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        detail = {"setup_samples_s": [r["setup_s"] for r in runs], "wall_s": res.get("wall_s")}
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    detail["failures"] = failures[:20]
    return result, detail


def source_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_palfkit_lines": lines}


def write_results(workload: str, args, result: dict, detail: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "arch": platform.machine(), "processor": platform.processor()},
        "nproc": os.cpu_count(),
        **source_facts(),
        "error_rate": result["failed"] / result["attempted"],
        **result,
        **detail,
    }
    stem = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}"
    spans = doc.pop("spans", None)
    if spans is not None:
        doc["spans_file"] = f"{stem.name}-spans.json"
        fields = ["id", "parent", "op", "name", "start", "end"]
        (OUT_DIR / doc["spans_file"]).write_text(json.dumps({"fields": fields, "spans": spans}) + "\n", encoding="utf-8")
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"error: palfkit sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = write_results(name, args, result, detail)
        for failure in detail["failures"][:5]:
            print(f"{name}: FAILED {failure}")
        for metric, m in result["metrics"].items():
            print(f"{name:10} {metric:44} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:10} {'error_rate':44} {result['failed'] / result['attempted']:>16.6g} ratio")
        print(f"{name:10} results in {path.relative_to(ROOT)}")
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
