"""toric-lab benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it benchmarks `src/toric_lab`
there.  It first times SETUP_SPAWNS fresh interpreters that each import the
package and complete `certify --dims 2,2` (setup_s, scaled to the nominal
host speed by the spawn gauge run before and after each spawn), then runs the
workload in one fresh worker process with the BLAS/OpenMP thread count
pinned to 1.  It prints the environment and every metric with its unit,
writes the same as JSON under perfbench/out/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import SPAWN_NOMINAL_S, scale, spawn_gauge
from workloads import WORKLOADS, Request, Response

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 9
SETUP_ARGV = ["certify", "--dims", "2,2"]
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from toric_lab import cli; "
    f"sys.exit(cli.main({SETUP_ARGV!r}))"
)
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
# Every run must end within 180 s; the worker gets what set-up leaves of this.
RUN_LIMIT_S = 170


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one (read without running git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "toric_lab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args: argparse.Namespace, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": dict(PINNED_THREADS),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 request in flight",
    }


def measure_setup(env: dict, checker) -> tuple[list[float], list[float], list[str]]:
    """Scaled and wall times of fresh interpreters completing the trivial request, and check failures."""
    scaled, wall, failures = [], [], []
    request = Request("certify", tuple(SETUP_ARGV))
    before = spawn_gauge(env)
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        wall.append(time.perf_counter() - t0)
        after = spawn_gauge(env)
        scaled.append(wall[-1] * scale(before, after, SPAWN_NOMINAL_S))
        before = after
        response = Response(wall[-1], rc=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)
        errors = checker.check(request, response)
        if errors:
            failures.append(f"setup {' '.join(SETUP_ARGV)}: {'; '.join(errors[:3])}")
    return scaled, wall, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="toric-lab benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "toric_lab" / "__init__.py").is_file():
        print(f"error: no toric_lab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    from oracles import Checker

    env = dict(os.environ, **PINNED_THREADS)
    setup, setup_wall, setup_failures = [], [], []
    if not args.trace:
        setup, setup_wall, setup_failures = measure_setup(env, Checker(SRC / "toric_lab" / "schemas", args.seed))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmpdir", str(tmpdir),
             "--spans", str(OUT / f"{stem}.spans.json")],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(10.0, RUN_LIMIT_S - (time.perf_counter() - started)),
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = worker["metrics"]
    if setup:
        metrics["setup_s"] = {"median": statistics.median(setup), "tail": None, "n": len(setup), "unit": "s"}
        metrics["setup_wall_s"] = {"median": statistics.median(setup_wall), "tail": None, "n": len(setup_wall),
                                   "unit": "s"}
    attempted = worker["attempted"] + len(setup)
    failed = worker["failed"] + len(setup_failures)
    result = {
        "environment": environment(args, worker["numpy"]),
        "passes": worker["passes"],
        "requests_per_pass": worker["requests_per_pass"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": setup_failures + worker["failures"],
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    env_rec = result["environment"]
    print(f"toric-lab benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"environment: python {env_rec['python']}, numpy {env_rec['numpy']}, nproc {env_rec['nproc']}, "
          f"cpu {env_rec['cpu_model']!r}, BLAS/OpenMP threads pinned to 1, commit {env_rec['git_commit']}, "
          f"source sha256 {env_rec['source_sha256'][:16]}")
    print(f"loop: {env_rec['loop']}; warm-up pass + {worker['passes'] - 1} measured passes of "
          f"{worker['requests_per_pass']} requests")
    print(f"{'metric':40} {'median':>14} {'unit':8} {'tail':>22} {'n':>4}")
    for name, m in metrics.items():
        tail = f"p{m['tail']['pct']:g}={m['tail']['value']:.6g}" if m["tail"] else "-"
        print(f"{name:40} {m['median']:14.6g} {m['unit']:8} {tail:>22} {m['n']:4d}")
    print(f"{'failed_frac':40} {result['failed_frac']:14.6g} {'frac':8} ({failed} of {attempted} requests)")
    for line in result["failures"]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["median"], "unit": metrics[name]["unit"]}
                    for name in _reported(args.trace)},
    }))
    return 0


def _reported(trace: int) -> list[str]:
    """Metric names BENCHMARK.json lists for this kind of run; each must have been measured."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
