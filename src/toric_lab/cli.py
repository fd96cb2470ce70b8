"""Command-line front end: eigenvalue tables, certificates, searches, and sweeps.

Each command takes only the flags it reads and writes only the formats it
lists in `_COMMANDS`.  `--spec FILE` holds one `key = value` per line, whose
keys are the command's own flags by their argparse `dest` names (`dims`,
`tie_tol`, `format`, ...).  The file's flags go ahead of the command line's,
so a flag overrides the file, and one parse validates both alike.  Outputs
are CSV (RFC 4180, LF line endings, 17-significant-digit floats) and JSON
documents matching the schemas shipped under `toric_lab/schemas/`.

Exit codes: 0 success (and certificate granted), 1 certificate refused,
2 invalid spec or arguments, 3 work-budget or allocation refusal, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import analysis, configs, spectrum
from .configs import BudgetExceededError, Configuration
from .energy import EnergyFunction, ExponentialAtom, InversePower, Tabulated, build_kernel
from .grid import GridDims, Metric, axis_wraps

__all__ = ["SpecError", "main"]

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_SPEC = 2
EXIT_BUDGET = 3
EXIT_IO = 4


class SpecError(ValueError):
    """Invalid instance description (flags or spec file)."""


def _fmt(v: float) -> str:
    """17 significant digits; round-trips float64 exactly."""
    return format(float(v), ".17g")


def parse_dims(text: str) -> tuple[int, ...]:
    parts = text.replace("x", ",").split(",")
    if not all(p.strip() for p in parts):
        raise SpecError(f"empty size in dims {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise SpecError(f"cannot parse dims {text!r}") from None


def _list_entries(text: str, sep: str, flag: str) -> list[str]:
    """The entries of a separated list flag: none for a blank text, and an empty entry is refused."""
    if not text.strip():
        return []
    entries = text.split(sep)
    if not all(e.strip() for e in entries):
        raise SpecError(f"empty entry in {flag} {text!r}")
    return entries


def parse_energy(text: str) -> EnergyFunction:
    """Parse an energy-function spec: inverse-power:A | exp:A[:sq] | table:PATH."""
    head, _, rest = text.partition(":")
    try:
        if head == "inverse-power":
            return InversePower(float(rest))
        if head == "exp":
            base, _, flag = rest.partition(":")
            if flag not in ("", "sq"):
                raise SpecError(f"unknown exponential flag {flag!r} in {text!r}")
            kind = "distance_squared" if flag == "sq" else "distance"
            return ExponentialAtom(float(base), kind)
        if head == "table":
            return Tabulated(_read_table(Path(rest)))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"bad energy function {text!r}: {exc}") from None
    raise SpecError(f"unknown energy function kind {head!r} (expected inverse-power, exp, table)")


def _content_lines(path: Path) -> Iterator[tuple[int, str, str]]:
    """Line number, raw text and content of each line whose content is not blank.

    The content is the text ahead of any `#` comment, stripped.
    """
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield number, raw, content


def _read_table(path: Path) -> dict[float, float]:
    table: dict[float, float] = {}
    for _, _, line in _content_lines(path):
        x_text, _, v_text = line.partition(",")
        x = float(x_text)
        if x in table:
            raise SpecError(f"energy table {path} repeats distance {x_text.strip()!r}")
        table[x] = float(v_text)
    if not table:
        raise SpecError(f"energy table {path} is empty")
    return table


def _tie_tol(text: str) -> float:
    """The --tie-tol flag's type: a float that spectrum.check_tie_tol accepts."""
    try:
        return spectrum.check_tie_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _instance(args: argparse.Namespace) -> tuple[GridDims, Metric, EnergyFunction]:
    return GridDims(parse_dims(args.dims)), Metric(args.metric), parse_energy(args.f)


@contextlib.contextmanager
def _out_stream(path: Path | None) -> Iterator[io.TextIOBase]:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_csv(path: Path | None, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    with _out_stream(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit_json(doc: dict, path: Path | None) -> None:
    text = json.dumps(doc, indent=2)
    if path is not None:
        path.write_text(text + "\n", encoding="utf-8")
    print(text)


def _check_format(fmt: str, dims: GridDims) -> None:
    """Refuse an output format that cannot show the grid, before any work."""
    if fmt == "ascii-grid" and dims.ndim > 2:
        raise SpecError("ascii-grid output supports 1- and 2-dimensional grids only")


def _render_ascii(config: Configuration) -> str:
    """One line of 0s and 1s per row of the grid; digit i is site i, row-major."""
    order, width = config.dims.order, config.dims.sizes[-1]
    cells = bytearray(b"0") * order
    for i in config.members:
        cells[i] = ord("1")
    return "\n".join(cells[start:start + width].decode() for start in range(0, order, width))


def _read_sites(path: Path, dims: GridDims) -> list[tuple[int, ...]]:
    """The sites of a configuration file, each on the grid and listed once."""
    line_of: dict[tuple[int, ...], int] = {}
    for number, _, line in _content_lines(path):
        site = tuple(int(c) for c in line.split(","))
        if len(site) != dims.ndim or not all(0 <= c < n for c, n in zip(site, dims.sizes)):
            raise SpecError(f"line {number}: {line!r} is not a site of the {dims} grid")
        if site in line_of:
            raise SpecError(f"line {number}: {line!r} repeats the site of line {line_of[site]}")
        line_of[site] = number
    return list(line_of)


def _summary_path(out: Path) -> Path:
    if out.suffix == ".csv":
        return out.with_suffix(".summary.json")
    return out.with_name(out.name + ".summary.json")


def _cmd_eigs(args: argparse.Namespace) -> int:
    dims, metric, f = _instance(args)
    table = spectrum.eigen_table(build_kernel(dims, metric, f))
    lam_min, argmin = spectrum.min_nontrivial(table, args.tie_tol)
    summary = {
        "dims": list(dims.sizes),
        "metric": args.metric,
        "f": args.f,
        "lambda_trivial": float(table.block.flat[0]),
        "lambda_min": lam_min,
        "argmin": [list(c) for c in argmin],
        "tie_tol": args.tie_tol if args.tie_tol is not None else spectrum.default_tie_tol(lam_min),
    }
    last = dims.sizes[-1]
    columns = [f"{j}," for j in range(last)]
    column_wraps = axis_wraps(last).tolist()
    with _out_stream(args.out) as handle:
        handle.write(",".join([f"j{i + 1}" for i in range(dims.ndim)] + ["lambda"]) + "\n")
        # rows in row-major character order, the order of itertools.product; a
        # row's values are the block row at its leading wraps, read at the
        # wraps of the last axis, so each block value is formatted once per row
        leading = itertools.product(*(range(n) for n in dims.sizes[:-1]))
        leading_wraps = itertools.product(*(axis_wraps(n).tolist() for n in dims.sizes[:-1]))
        for lead, wraps in zip(leading, leading_wraps):
            prefix = "".join(f"{c}," for c in lead)
            texts = [format(v, ".17g") for v in table.block[wraps].tolist()]  # _fmt, on floats already
            cells = [column + texts[w] for column, w in zip(columns, column_wraps)]
            handle.write(prefix + ("\n" + prefix).join(cells) + "\n")
    if args.out is not None:
        _summary_path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(summary, indent=2))
    else:
        print(json.dumps(summary, indent=2), file=sys.stderr)
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    cert = spectrum.checkerboard_certificate(*_instance(args), args.tie_tol)
    doc = {
        "dims": list(cert.dims.sizes),
        "metric": args.metric,
        "f": args.f,
        "p": cert.p,
        "certified": cert.certified,
        "lambda_trivial": cert.lambda_trivial,
        "lambda_min": cert.lambda_min,
        "argmin": [list(c) for c in cert.argmin_characters],
        "offenders": [list(c) for c in cert.offenders],
        "gap_to_minus_one": cert.gap_to_minus_one,
        "multiplicity": cert.multiplicity,
        "optimal_value": cert.optimal_value,
        "checkerboard_e_tot": cert.checkerboard_e_tot,
        "checkerboard_e_max": cert.checkerboard_e_max,
        "tie_tol": cert.tie_tol,
        "conclusion": cert.conclusion,
    }
    _emit_json(doc, args.out)
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def _cmd_search(args: argparse.Namespace) -> int:
    # flags that only the other method reads
    unread = ("top_k", "reduce", "budget") if args.method == "local" else ("restarts", "seed")
    given = [f"--{name.replace('_', '-')} {getattr(args, name)}" for name in unread
             if getattr(args, name) is not None]
    if given:
        raise SpecError(f"--method {args.method} does not read {', '.join(given)}")
    top_k = 1 if args.top_k is None else args.top_k
    reduce = "none" if args.reduce is None else args.reduce
    restarts = 1 if args.restarts is None else args.restarts
    seed = 0 if args.seed is None else args.seed
    dims, metric, f = _instance(args)
    _check_format(args.format, dims)
    if args.method == "exhaustive":
        hits = configs.brute_force(
            dims,
            metric,
            f,
            args.p,
            objective=args.objective,
            top_k=top_k,
            reduce=reduce,
            budget=args.budget,
        )
    else:
        hits = [
            configs.local_search(
                dims, metric, f, args.p, objective=args.objective, restarts=restarts, rng_seed=seed
            )
        ]
    doc = {
        "dims": list(dims.sizes),
        "metric": args.metric,
        "f": args.f,
        "p": args.p,
        "objective": args.objective,
        "top_k": top_k,
        "reduce": reduce,
        "seed": seed,
        "restarts": restarts,
        "results": [
            {
                "rank": rank,
                "value": hit.value,
                "orbit_size": hit.orbit_size,
                "sites": [list(s) for s in hit.config.sites()],
            }
            for rank, hit in enumerate(hits, start=1)
        ],
    }
    if args.format == "json":
        _emit_json(doc, args.out)
    elif args.format == "csv":
        header = ["rank", "value", "orbit_size", "sites"]
        rows = [
            [str(r["rank"]), _fmt(r["value"]), str(r["orbit_size"]),
             ";".join(",".join(map(str, s)) for s in r["sites"])]
            for r in doc["results"]
        ]
        _write_csv(args.out, header, rows)
    else:
        blocks = []
        for r, hit in zip(doc["results"], hits):
            blocks.append(
                f"rank={r['rank']} value={_fmt(r['value'])} orbit_size={r['orbit_size']}\n"
                + _render_ascii(hit.config)
            )
        text = "\n\n".join(blocks) + "\n"
        with _out_stream(args.out) as handle:
            handle.write(text)
    return EXIT_OK


def _cmd_energy(args: argparse.Namespace) -> int:
    dims, metric, f = _instance(args)
    _check_format(args.format, dims)
    try:
        sites = _read_sites(args.config, dims)
    except ValueError as exc:
        raise SpecError(f"bad configuration file {args.config}: {exc}") from None
    config = Configuration.from_sites(dims, sites)
    report = configs.energies(config, build_kernel(dims, metric, f))
    if args.format == "ascii-grid":
        text = (
            _render_ascii(config)
            + f"\ne_tot={_fmt(report.e_tot)} e_max={_fmt(report.e_max)}"
            + f" equienergetic={'yes' if report.is_equienergetic else 'no'}\n"
        )
        with _out_stream(args.out) as handle:
            handle.write(text)
        return EXIT_OK
    doc = {
        "dims": list(dims.sizes),
        "metric": args.metric,
        "f": args.f,
        "p": config.p,
        "per_site": [
            {"site": list(site), "energy": value}
            for site, value in sorted(report.per_site.items())
        ],
        "e_max": report.e_max,
        "e_tot": report.e_tot,
        "is_equienergetic": report.is_equienergetic,
        "is_empty": report.is_empty,
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    metric, f = Metric(args.metric), parse_energy(args.f)
    dims_list = [parse_dims(part) for part in _list_entries(args.dims_list, ";", "--dims-list")]
    if not dims_list:
        raise SpecError("sweep needs at least one dims entry")
    header = [
        "dims", "certified", "lambda_min", "gap_to_minus_one",
        "optimal_value", "checkerboard_e_tot", "checkerboard_e_max", "tie_tol",
    ]
    rows = []
    all_certified = True
    for sizes in dims_list:
        dims = GridDims(sizes)
        cert = spectrum.checkerboard_certificate(dims, metric, f, args.tie_tol)
        all_certified = all_certified and cert.certified
        rows.append([
            str(dims),
            "true" if cert.certified else "false",
            _fmt(cert.lambda_min),
            _fmt(cert.gap_to_minus_one),
            _fmt(cert.optimal_value),
            _fmt(cert.checkerboard_e_tot),
            _fmt(cert.checkerboard_e_max),
            _fmt(cert.tie_tol),
        ])
    _write_csv(args.out, header, rows)
    return EXIT_OK if all_certified else EXIT_NOT_CERTIFIED


def _cmd_factor_curve(args: argparse.Namespace) -> int:
    curve = analysis.factor_curve(args.n, args.a, args.power)
    rows = [[str(k), _fmt(curve.values[k])] for k in range(curve.n)]
    _write_csv(args.out, ["k", "value"], rows)
    summary = {
        "n": curve.n,
        "a": curve.a,
        "power": curve.distance_power,
        "argmin": list(curve.argmin),
        "min_value": curve.min_value,
    }
    print(json.dumps(summary, indent=2), file=sys.stdout if args.out is not None else sys.stderr)
    return EXIT_OK


def _cmd_bernstein(args: argparse.Namespace) -> int:
    a_grid = [float(x) for x in _list_entries(args.a_grid, ",", "--a-grid")]
    curves = analysis.bernstein_sweep(args.n, args.power, a_grid)
    header = ["a", "argmin", "is_minus_one_strict_min", "min_value"]
    rows = [
        [_fmt(c.a), ";".join(map(str, c.argmin)),
         "true" if c.is_minus_one_strict_min else "false", _fmt(c.min_value)]
        for c in curves
    ]
    _write_csv(args.out, header, rows)
    return EXIT_OK


# Every flag a command may take; each command registers the ones it reads.
_FLAGS: dict[str, dict] = {
    "--spec": dict(type=Path, help="file of 'key = value' lines keyed by flag dest (e.g. tie_tol); flags override it"),
    "--dims": dict(type=str, required=True, help="grid sizes, e.g. 4,4"),
    "--metric": dict(type=str, choices=sorted(m.value for m in Metric), default="lee", help="distance kind"),
    "--f": dict(type=str, default="inverse-power:1",
                help="energy function: inverse-power:A | exp:A[:sq] | table:PATH"),
    "--p": dict(type=int, required=True, help="particle count"),
    "--tie-tol": dict(type=_tie_tol, help="eigenvalue tie tolerance (default: scaled 1e-9)"),
    "--budget": dict(type=int, help="work budget in member pairs (exhaustive method)"),
    "--seed": dict(type=int, help="random seed (local method; default 0)"),
    "--format": dict(type=str, help="output format (default: the first choice)"),
    "--out": dict(type=Path, help="output file (default: stdout)"),
    "--objective": dict(choices=["total", "max"], default="total"),
    "--top-k": dict(type=int, help="hits to report (exhaustive method; default 1)"),
    "--reduce": dict(choices=["none", "translations"], help="orbit reduction (exhaustive method; default none)"),
    "--method": dict(choices=["exhaustive", "local"], default="exhaustive"),
    "--restarts": dict(type=int, help="restarts (local method; default 1)"),
    "--config": dict(type=Path, required=True, help="file of sites, one comma-separated coordinate tuple per line"),
    "--dims-list": dict(type=str, required=True, help="semicolon-separated dims, e.g. '2,2;4,4;8,4'"),
    "--n": dict(type=int, required=True),
    "--a": dict(type=float, required=True),
    "--power": dict(type=int, choices=[1, 2], default=1),
    "--a-grid": dict(type=str, required=True, help="comma-separated bases > 1"),
}


@dataclass(frozen=True)
class _Command:
    run: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple[str, ...]
    formats: tuple[str, ...] = ()  # the --format choices; the first is the default


_COMMANDS: dict[str, _Command] = {
    "eigs": _Command(
        _cmd_eigs, "eigenvalue table as CSV plus a JSON summary",
        ("--spec", "--dims", "--metric", "--f", "--tie-tol", "--out"),
    ),
    "certify": _Command(
        _cmd_certify, "checkerboard certificate as JSON (exit 1 if refused)",
        ("--spec", "--dims", "--metric", "--f", "--tie-tol", "--out"),
    ),
    "search": _Command(
        _cmd_search, "rank p-subsets by total or maximal energy",
        ("--spec", "--dims", "--metric", "--f", "--p", "--budget", "--seed", "--format", "--out",
         "--objective", "--top-k", "--reduce", "--method", "--restarts"),
        ("json", "csv", "ascii-grid"),
    ),
    "energy": _Command(
        _cmd_energy, "energy report for a configuration file",
        ("--spec", "--dims", "--metric", "--f", "--format", "--out", "--config"), ("json", "ascii-grid"),
    ),
    "sweep": _Command(
        _cmd_sweep, "batch certificates over a list of grids (CSV)",
        ("--spec", "--metric", "--f", "--tie-tol", "--out", "--dims-list"),
    ),
    "factor-curve": _Command(
        _cmd_factor_curve, "one per-dimension factor curve (CSV)",
        ("--n", "--a", "--power", "--out"),
    ),
    "bernstein": _Command(
        _cmd_bernstein, "factor-curve argmin sweep over a base grid (CSV)",
        ("--n", "--power", "--a-grid", "--out"),
    ),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's parser by command name."""
    parser = argparse.ArgumentParser(
        prog="toric-lab",
        description="Spectral certificates and configuration search for repelling particles on toric grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, command in _COMMANDS.items():
        # no abbreviations, so that sweep refuses --dims rather than read it as --dims-list
        p_cmd = commands[name] = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for flag in command.flags:
            options = dict(_FLAGS[flag])
            if flag == "--format":
                options.update(choices=command.formats, default=command.formats[0])
            p_cmd.add_argument(flag, **options)
    return parser, commands


# built once; main parses each command line with its command's own parser
_PARSER, _COMMAND_PARSERS = _build_parser()


def _spec_flags(path: Path, command: str) -> list[str]:
    """A spec file's `key = value` lines as `--flag=value` arguments of the command.

    Each key is the dest argparse gives a flag of the command (`tie_tol` for
    `--tie-tol`); a key set twice, or naming no such flag, is refused.
    """
    keys: dict[str, str] = {}
    for _, raw, line in _content_lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecError(f"expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in keys:
            raise SpecError(f"spec key {key!r} is set twice")
        keys[key] = value.strip()
    flags = {flag[2:].replace("-", "_"): flag for flag in _COMMANDS[command].flags if flag != "--spec"}
    unread = [f"{key} = {value!r}" for key, value in keys.items() if key not in flags]
    if unread:
        raise SpecError(f"{command} does not read spec keys {', '.join(unread)}")
    return [f"{flags[key]}={value}" for key, value in keys.items()]


# finds --spec FILE on a command line as the full parse reads it, before that parse runs
_SPEC_FLAG = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
_SPEC_FLAG.add_argument("--spec", type=Path)


def _parse_args(argv: list[str]) -> tuple[_Command, argparse.Namespace]:
    """The command named first and its flags, with the flags of its --spec file put ahead."""
    if not argv or argv[0] not in _COMMANDS:  # -h, or no or an unknown command
        _PARSER.parse_args(argv)  # prints the help or the error and exits
    name, flags = argv[0], argv[1:]
    command = _COMMANDS[name]
    if "--spec" in command.flags:
        try:
            path = _SPEC_FLAG.parse_known_args(flags)[0].spec
        except argparse.ArgumentError:  # such as --spec without a file: the full parse reports it
            path = None
        if path is not None:
            flags = [*_spec_flags(path, name), *flags]
    return command, _COMMAND_PARSERS[name].parse_args(flags)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        return command.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: allocation refused", file=sys.stderr)
        return EXIT_BUDGET
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
