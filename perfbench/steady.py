"""Steadiness check: runs the benchmark twice on the same code and compares.

    python3 perfbench/steady.py

Each of SETS sets runs every workload of BENCHMARK.json RUNS times with its
run_seconds, each run with a seed of its own (1, 2, ... across the sets),
workloads interleaved.  For every workload and end-to-end metric it prints,
per set, the median and the quartile spread (Q3 - Q1) / median from
statistics.quantiles(values, n=4), then the worsening of the second set's
median against the first.  A spread holds when it is within the metric's
bound, and is steady when below a third of it; the shift holds when it is
within the bound.  The runs and the table are saved to
perfbench/out/steady.json.  Exits 0 when every run was correct and every
spread and shift holds, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, last: float, better: str) -> float:
    return (last - first) / first if better == "lower" else (first - last) / first


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    runs = []  # (set, workload, seed, result line)
    seed = 1
    for k in range(SETS):
        for _ in range(RUNS):
            for w in workloads:
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed), "--seconds",
                                         str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                runs.append({"set": k, "workload": w, "seed": seed, "rc": proc.returncode, "result": result})
                status = "ok" if result and result["correct"] else f"FAILED (exit {proc.returncode})"
                print(f"set {k} {w:16} seed {seed:4}: {status}", file=sys.stderr, flush=True)
            seed += 1

    ok = all(r["result"] and r["result"]["correct"] for r in runs)
    rows = []
    print(f"{'workload':16} {'metric':20} {'bound':>6} " + " ".join(
        f"{f'median{k}':>12} {f'spread{k}':>8}" for k in range(SETS)) + f" {'shift':>8}  verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["result"]["metrics"][name]["value"] for r in runs
                        if r["set"] == k and r["workload"] == w and r["result"]] for k in range(SETS)]
            if any(len(v) < 2 for v in per_set):
                ok = False
                continue
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            shift = worsening(medians[0], medians[-1], metric["better"])
            holds = shift <= bound and max(spreads) <= bound
            steady = max(spreads) < bound / 3
            ok = ok and holds
            verdict = ("steady" if steady else "holds") if holds else "FAILS"
            rows.append({"workload": w, "metric": name, "bound": bound, "medians": medians,
                         "spreads": spreads, "shift": shift, "verdict": verdict})
            print(f"{w:16} {name:20} {bound:6.3f} " + " ".join(
                f"{m:12.6g} {s:8.4f}" for m, s in zip(medians, spreads)) + f" {shift:8.4f}  {verdict}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"runs": runs, "table": rows}, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
