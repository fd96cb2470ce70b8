"""Request lists of the benchmark's workloads, generated from the workload seed.

A request is either a CLI invocation (`argv` for `toric_lab.cli.main`) or a
relaxation query through the library (`build_kernel -> eigen_table ->
solve_relaxation` at p = |G|/4).  The seed picks the sparse configurations
of the `energy` requests and the `--seed` of every local search; it never
changes which instances run or their order, so every seed does the same
amount of work apart from the local-search descents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("certify", "spectrum-large", "search")

METRICS = ("lee", "euclid", "euclid-sq", "chebyshev")

# Tiny requests that touch every traced layer once, carried by every workload
# so that each per-layer metric is measured on each workload.  Together they
# take about 20 ms of a 3-5 s pass (2-vCPU Intel Xeon VM, Python 3.11).
PROBE_ARGVS = (
    ("certify", "--dims", "4,4", "--metric", "lee", "--f", "inverse-power:1"),
    ("search", "--dims", "4,2", "--p", "3", "--top-k", "2"),
    ("search", "--dims", "4,2", "--p", "3", "--method", "local", "--restarts", "2"),
    ("factor-curve", "--n", "8", "--a", "2"),
)

CERTIFY_GRIDS = (
    (4, 4), (8, 8), (16, 16), (32, 32), (64, 64),
    (2, 2, 4), (4, 4, 4), (8, 8, 4), (8, 8, 8), (16, 16, 8), (16, 16, 16),
)
CERTIFY_PROFILES = (
    "inverse-power:0.3", "inverse-power:1", "inverse-power:2", "exp:1.05", "exp:2", "exp:2:sq",
)
# Instances the certificate refuses: their exit code must be 1.
CERTIFY_REFUSED = (
    ("8", "euclid-sq", "exp:1.05"),
    ("6,6", "chebyshev", "inverse-power:1"),
)
SWEEPS = (
    ("4,4;8,8;16,16;32,32", "lee", "inverse-power:1"),
    ("2,2,4;4,4,4;8,8,4", "chebyshev", "exp:2"),
    ("4,4;8,8;16,16", "euclid-sq", "exp:1.05"),
)
CURVES = (
    ("factor-curve", "--n", "256", "--a", "1.05", "--power", "1"),
    ("factor-curve", "--n", "128", "--a", "1.01", "--power", "2"),
    ("bernstein", "--n", "6", "--power", "1", "--a-grid", "1.01,1.05,1.5,5"),
    ("bernstein", "--n", "64", "--power", "2", "--a-grid", "1.01,1.1,2"),
)

# Inverse powers only: exponential profiles underflow over grids this large
# and tie a large share of all characters at the minimum.
RELAX_GRIDS = ((512, 512), (1024, 1024), (64, 64, 64))
RELAX_METRICS = ("lee", "euclid", "chebyshev")
RELAX_PROFILES = ("inverse-power:0.3", "inverse-power:1", "inverse-power:2")
EIGS = (
    ((256, 256), "euclid", "inverse-power:2"),
    ((512, 512), "lee", "inverse-power:1"),
)
ENERGY_GRID = (1024, 1024)
ENERGY = ((8, "lee", "inverse-power:1"), (16, "euclid", "inverse-power:2"),
          (32, "euclid-sq", "inverse-power:0.3"), (64, "chebyshev", "inverse-power:1"))

EXHAUSTIVE = (
    ("--dims", "4,4", "--p", "8", "--top-k", "4", "--objective", "total"),
    ("--dims", "4,4", "--p", "8", "--top-k", "4", "--objective", "max"),
    ("--dims", "4,4", "--p", "4", "--top-k", "3", "--reduce", "translations"),
    ("--dims", "4,4", "--p", "8", "--top-k", "3", "--reduce", "translations"),
    ("--dims", "5,5", "--p", "6", "--top-k", "2", "--objective", "total"),
    ("--dims", "6,4", "--metric", "chebyshev", "--p", "6", "--objective", "max"),
)
LOCAL = (
    ("--dims", "6,6", "--metric", "chebyshev", "--p", "18", "--objective", "max", "--restarts", "200"),
    ("--dims", "12,12", "--metric", "chebyshev", "--p", "72", "--objective", "max", "--restarts", "5"),
    ("--dims", "16,16", "--metric", "lee", "--p", "64", "--objective", "total", "--restarts", "10"),
)


@dataclass(frozen=True)
class Request:
    """One request of a pass.

    kind groups requests for the per-kind seconds.  For CLI requests argv is
    set; for relaxation queries argv is None and dims/metric/f describe the
    instance.  out names the file a CLI request writes, if any.
    """

    kind: str
    argv: tuple[str, ...] | None = None
    dims: tuple[int, ...] = ()
    metric: str = ""
    f: str = ""
    out: Path | None = None

    def label(self) -> str:
        if self.argv is None:
            return f"relax {'x'.join(map(str, self.dims))} {self.metric} {self.f}"
        return " ".join(self.argv)


@dataclass
class Response:
    """Outcome of one request: its timed seconds and what the program returned."""

    seconds: float
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    result: object = None
    error: str | None = None
    output_bytes: int = 0


class Workload:
    """The fixed request list of one workload; local-search seeds change per pass."""

    def __init__(self, name: str, seed: int, tmpdir: Path) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r} (expected one of {WORKLOADS})")
        self.name = name
        self.seed = seed
        rng = random.Random(f"{name}:{seed}")
        self._base = _REQUEST_LISTS[name](rng, tmpdir) + [Request("probe", argv) for argv in PROBE_ARGVS]

    def requests(self, pass_index: int) -> list[Request]:
        """The pass's requests; local searches get seeds drawn from (seed, pass_index)."""
        rng = random.Random(f"{self.name}:{self.seed}:pass{pass_index}")
        out = []
        for req in self._base:
            if req.argv is not None and "local" in req.argv:
                argv = req.argv + ("--seed", str(rng.randrange(2**31)))
                req = Request(req.kind, argv)
            out.append(req)
        return out


def _certify(rng: random.Random, tmpdir: Path) -> list[Request]:
    reqs = [Request("certify", ("certify", "--dims", "2,2"))]
    for gi, dims in enumerate(CERTIFY_GRIDS):
        for mi, metric in enumerate(METRICS):
            f = CERTIFY_PROFILES[(gi + mi) % len(CERTIFY_PROFILES)]
            dims_text = ",".join(map(str, dims))
            reqs.append(Request("certify", ("certify", "--dims", dims_text, "--metric", metric, "--f", f)))
    for dims_text, metric, f in CERTIFY_REFUSED:
        reqs.append(Request("certify", ("certify", "--dims", dims_text, "--metric", metric, "--f", f)))
    for dims_list, metric, f in SWEEPS:
        reqs.append(Request("certify", ("sweep", "--dims-list", dims_list, "--metric", metric, "--f", f)))
    reqs += [Request("curve", argv) for argv in CURVES]
    return reqs


def _spectrum_large(rng: random.Random, tmpdir: Path) -> list[Request]:
    reqs = []
    for gi, dims in enumerate(RELAX_GRIDS):
        for mi, metric in enumerate(RELAX_METRICS):
            f = RELAX_PROFILES[(gi + mi) % len(RELAX_PROFILES)]
            reqs.append(Request("relax", dims=dims, metric=metric, f=f))
    for dims, metric, f in EIGS:
        out = tmpdir / f"eigs-{'x'.join(map(str, dims))}.csv"
        argv = ("eigs", "--dims", ",".join(map(str, dims)), "--metric", metric, "--f", f, "--out", str(out))
        reqs.append(Request("eigs", argv, out=out))
    order = ENERGY_GRID[0] * ENERGY_GRID[1]
    for i, (p, metric, f) in enumerate(ENERGY):
        picked = rng.sample(range(order), p)
        path = tmpdir / f"config-{i}.txt"
        path.write_text(
            "".join(f"{k // ENERGY_GRID[1]},{k % ENERGY_GRID[1]}\n" for k in picked), encoding="utf-8"
        )
        argv = ("energy", "--dims", ",".join(map(str, ENERGY_GRID)), "--metric", metric,
                "--f", f, "--config", str(path))
        reqs.append(Request("energy", argv))
    return reqs


def _search(rng: random.Random, tmpdir: Path) -> list[Request]:
    reqs = [Request("exhaustive", ("search",) + args) for args in EXHAUSTIVE]
    reqs += [Request("local", ("search", "--method", "local") + args) for args in LOCAL]
    return reqs


_REQUEST_LISTS = {"certify": _certify, "spectrum-large": _spectrum_large, "search": _search}
