"""Benchmark worker: runs one workload in a fresh process and prints its measurements.

The loop is closed, with one client and one request in flight: CLI requests
call `toric_lab.cli.main(argv)` in this process, relaxation queries call the
public library functions.  Only the call itself is timed, and its wall time
is scaled to the nominal host speed by the gauge (perfbench/gauge.py) run
before and after it; the wall times are reported too.  Every response is
sent to the oracles between requests, and they run in a child process
(perfbench/oracles.py) so that their memory is not counted in this
process's peak RSS.  A response is dropped before the next request starts.
A warm-up pass (checked, not measured) fills the oracle caches and finishes
lazy set-up, then passes repeat until the requested seconds are spent.
With --trace 1, untraced and traced passes alternate, and the traced ones
give the per-layer metrics.

Run through perfbench/run.py, which pins the BLAS thread count first.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import toric_lab as tl  # noqa: E402
from toric_lab import cli, grid  # noqa: E402

from gauge import gauge, scale  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import Request, Response, Workload  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
KINDS = ("certify", "relax", "eigs", "energy", "exhaustive", "local", "curve", "probe")
# Percentiles tried for the tail of a metric, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def execute(req: Request) -> Response:
    """Run one request; only the call into toric_lab is timed."""
    if req.argv is None:
        metric = tl.Metric(req.metric)
        f = tl.InversePower(float(req.f.partition(":")[2]))
        try:
            t0 = time.perf_counter()
            dims = tl.GridDims(req.dims)
            table = tl.eigen_table(tl.build_kernel(dims, metric, f))
            sol = tl.solve_relaxation(table, dims.order // 4)
            t1 = time.perf_counter()
        except Exception as exc:  # a failed request is counted, not fatal
            return Response(0.0, error=repr(exc))
        # plain data, so that the oracle process needs no toric_lab classes
        return Response(t1 - t0, result=(SimpleNamespace(**dataclasses.asdict(sol)), table.values))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(list(req.argv))
            t1 = time.perf_counter()
    except Exception as exc:  # a failed request is counted, not fatal
        return Response(0.0, error=repr(exc))
    resp = Response(t1 - t0, rc=rc, stdout=out.getvalue(), stderr=err.getvalue())
    resp.output_bytes = len(resp.stdout.encode()) + len(resp.stderr.encode())
    if req.out is not None and req.out.exists():
        resp.output_bytes += req.out.stat().st_size
    return resp


class OracleProcess:
    """perfbench/oracles.py in a child process; check() waits for its verdict."""

    def __init__(self, seed: int) -> None:
        self._proc = subprocess.Popen([sys.executable, str(HERE / "oracles.py"), "--seed", str(seed)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def check(self, req: Request, resp: Response) -> list[str]:
        pickle.dump((req, resp), self._proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self._proc.stdin.flush()
        return pickle.load(self._proc.stdout)

    def close(self) -> int:
        """End the process and wait for it; returns its exit code."""
        self._proc.stdin.close()
        try:
            return self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            return self._proc.wait()


class Runner:
    def __init__(self, checker: OracleProcess) -> None:
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes = 0

    def run_pass(self, requests: list[Request], tracer: Tracer | None = None) -> dict:
        """One pass over the request list; returns its scaled and wall timings."""
        started = time.perf_counter()
        index = self.passes
        self.passes += 1
        seconds: list[float] = []
        wall: list[float] = []
        gauges = [gauge()]
        kinds = dict.fromkeys(KINDS, 0.0)
        output_bytes = 0
        for j, req in enumerate(requests):
            if tracer:
                tracer.request = f"{index}:{j}"
            resp = execute(req)
            gauges.append(gauge())
            self.attempted += 1
            errors = self.checker.check(req, resp)
            if errors:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{req.label()}: {'; '.join(errors[:3])}")
            seconds.append(resp.seconds * scale(gauges[-2], gauges[-1]))
            wall.append(resp.seconds)
            kinds[req.kind] += seconds[-1]
            output_bytes += resp.output_bytes
            del resp  # the program's output is not kept while the next request runs
        return {"pass_s": sum(seconds), "seconds": seconds, "wall_s": sum(wall), "wall": wall,
                "gauges": gauges, "kinds": kinds, "output_bytes": output_bytes,
                "elapsed": time.perf_counter() - started}


def summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * n)
        if rank >= 1 and n - rank >= 10:
            tail = {"pct": q, "value": ordered[rank - 1]}
            break
    return {"median": statistics.median(ordered), "tail": tail, "n": n, "samples": samples}


def untraced(runner: Runner, workload: Workload, seconds: float) -> dict:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start + passes[-1]["elapsed"] <= seconds:
        passes.append(runner.run_pass(workload.requests(len(passes) + 1)))
    metrics = {}
    for suffix, per_pass, per_request in (("s", "pass_s", "seconds"), ("wall_s", "wall_s", "wall")):
        metrics[f"pass_{suffix}"] = (summary([p[per_pass] for p in passes]), "s")
        # The slowest request of the list by its median latency; a per-pass
        # maximum would pick up whichever request a noisy moment happened to hit.
        latencies = [summary(list(s)) for s in zip(*(p[per_request] for p in passes))]
        metrics[f"slowest_request_{suffix}"] = (max(latencies, key=lambda m: m["median"]), "s")
    metrics["gauge_s"] = (summary([g for p in passes for g in p["gauges"]]), "s")
    for kind in KINDS:
        if any(p["kinds"][kind] for p in passes):
            metrics[f"{kind}_s"] = (summary([p["kinds"][kind] for p in passes]), "s")
    return metrics


def traced(runner: Runner, workload: Workload, seconds: float) -> tuple[dict, list]:
    """Untraced and traced passes alternate; both passes of a pair run the same requests."""
    tracer = Tracer()
    plain, traced_passes = [], []
    start = time.perf_counter()
    while len(traced_passes) < MIN_TRACED_PAIRS or (
        time.perf_counter() - start + plain[-1]["elapsed"] + traced_passes[-1]["elapsed"] <= seconds
    ):
        requests = workload.requests(len(plain) + 1)
        plain.append(runner.run_pass(requests))
        tracer.install()
        try:
            traced_passes.append(runner.run_pass(requests, tracer))
        finally:
            tracer.uninstall()
    pass_of = {s.request: int(s.request.split(":")[0]) for s in tracer.spans}
    counts: dict = {}

    def distinct_distances(key) -> int:
        if key not in counts:
            counts[key] = int(np.unique(grid.distance_table(tl.GridDims(key[0]), key[1])).size)
        return counts[key]

    layers = layer_metrics(tracer.spans, pass_of, distinct_distances)
    layers["cli.output_bytes"] = (statistics.median(p["output_bytes"] for p in traced_passes), "bytes")
    overhead = statistics.median(p["pass_s"] for p in traced_passes) / statistics.median(
        p["pass_s"] for p in plain) - 1.0
    layers["trace_overhead_frac"] = (overhead, "frac")
    metrics = {name: ({"median": value, "tail": None, "n": len(traced_passes)}, unit)
               for name, (value, unit) in layers.items()}
    spans = [[s.name, s.start, s.end, s.parent, s.request] for s in tracer.spans]
    return metrics, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tmpdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True, help="file for the traced run's spans")
    args = parser.parse_args(argv)

    checker = OracleProcess(args.seed)
    try:
        runner = Runner(checker)
        workload = Workload(args.workload, args.seed, args.tmpdir)
        runner.run_pass(workload.requests(0))  # warm-up: checked, not measured
        if args.trace:
            metrics, spans = traced(runner, workload, args.seconds)
            args.spans.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "request"], "spans": spans}), encoding="utf-8")
        else:
            metrics = untraced(runner, workload, args.seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = ({"median": rss, "tail": None, "n": 1}, "MB")
    finally:
        rc = checker.close()
    if rc != 0:
        print(f"error: oracle process exited with code {rc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "metrics": {name: dict(stats, unit=unit) for name, (stats, unit) in metrics.items()},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "passes": runner.passes,
        "requests_per_pass": len(workload.requests(0)),
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
