"""Command-line front end: eigenvalue tables, certificates, searches, and sweeps.

Each command takes only the flags it reads and writes only the formats it
lists in `_COMMANDS`.  `--spec FILE` holds one `key = value` per line, whose
keys are the command's own flags by their argparse `dest` names (`dims`,
`tie_tol`, `format`, ...).  The file's flags go ahead of the command line's,
so a flag overrides the file, and one parse validates both alike:
`_read_integer` and `_read_real` read every number.  Outputs are CSV (RFC
4180, LF line endings), ascii-grid pictures and JSON documents matching the
schemas shipped under `toric_lab/schemas/`.  Every CSV and ascii-grid float
goes through one formatter, `_fmt`: 17 significant digits, which round-trip
float64 exactly, and an inf or NaN is refused; the `eigs` table takes its
texts as ASCII bytes and stays bytes up to its file.  Every JSON document goes
through one writer, `_emit_json`, which refuses an inf or NaN too; `_echo`
gives the `dims`, `metric` and `f` that open the `eigs` summary and the
`certify`, `search` and `energy` documents.  The `eigs` summary is the
relaxation's lambda(1), lambda_min, argmin and tie tolerance.

Parsers are built on first use: `_command_parser` builds a command's
parser when a command line names it and keeps it for the process, and the
top-level parser is built only for `-h` or a missing or unknown command.
Likewise the commands import `configs` and `analysis` where they use them,
so `certify`, `sweep` and `eigs` load only `grid`, `energy` and `spectrum`.

Exit codes: 0 success (and certificate granted), 1 certificate refused,
2 invalid spec or arguments, or a result holding an inf or NaN (which no
format writes), 3 work-budget or allocation refusal, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import operator
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import spectrum
from .energy import EnergyFunction, ExponentialAtom, InversePower, Tabulated, build_kernel
from .grid import BudgetExceededError, GridDims, Metric, axis_wraps, index_to_sites

if TYPE_CHECKING:
    from .configs import Configuration

__all__ = ["SpecError", "main"]

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_SPEC = 2
EXIT_BUDGET = 3
EXIT_IO = 4


class SpecError(ValueError, argparse.ArgumentTypeError):
    """Invalid instance description (flags or spec file); a flag's type reports its message."""


def _fmt(values: Sequence[float] | np.ndarray, kind: type[str] | type[bytes] = str) -> list:
    """Each value to 17 significant digits, which round-trip float64 exactly, as a str or as ASCII bytes.

    The values are checked once: the first inf or NaN among them is refused.
    One `%` call formats them all, giving for each value the text of
    `format(x, ".17g")`, or its ASCII bytes when kind is bytes, without a
    Python call per value.
    """
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"cannot write the non-finite value {values[~finite][0].item()!r}")
    line = "%.17g\n"
    if kind is bytes:
        line = line.encode()
    return (line * len(values) % tuple(values.tolist())).split(line[-1:])[:-1]


def _read_integer(text: str, refusal: str = "") -> int:
    """An optional `-`, then ASCII digits, blanks around allowed; other text is refused with the message refusal.

    So are more digits than int() reads (sys.get_int_max_str_digits()).
    """
    with contextlib.suppress(ValueError):
        if text.isascii() and text.strip().removeprefix("-").isdigit():
            return int(text)
    raise SpecError(refusal or f"{text!r} is not an integer")


def _read_real(text: str, refusal: str = "") -> float:
    """What float() reads (inf and nan too), unless the text holds a `_` or a non-ASCII character."""
    with contextlib.suppress(ValueError):
        if text.isascii() and "_" not in text:
            return float(text)
    raise SpecError(refusal or f"{text!r} is not a number")


def _read_list(text: str, sep: str, name: str, read: Callable | None = None, entry: str = "entry") -> list:
    """The entries of the list name split at the pattern sep, each read by read if given; an empty entry is refused."""
    entries = re.split(sep, text)
    if not all(e.strip() for e in entries):
        raise SpecError(f"empty {entry} in {name} {text!r}")
    return entries if read is None else [read(e, f"bad {entry} {e!r} in {name} {text!r}") for e in entries]


def parse_dims(text: str) -> tuple[int, ...]:
    return tuple(_read_list(text, "[,x]", "dims", _read_integer, "size"))


def parse_energy(text: str) -> EnergyFunction:
    """Parse an energy-function spec: inverse-power:A | exp:A[:sq] | table:PATH."""
    head, _, rest = text.partition(":")
    table = _read_table(Path(rest)) if head == "table" else None
    base, _, flag = rest.partition(":")
    try:
        if head == "inverse-power":
            return InversePower(_read_real(rest))
        if head == "exp":
            if flag not in ("", "sq"):
                raise ValueError(f"unknown exponential flag {flag!r}")
            return ExponentialAtom(_read_real(base), "distance_squared" if flag == "sq" else "distance")
        if table is not None:
            return Tabulated(table)
    except ValueError as exc:
        raise SpecError(f"bad energy function {text!r}: {exc}") from None
    raise SpecError(f"unknown energy function kind {head!r} (expected inverse-power, exp, table)")


def _content_lines(path: Path, kind: str) -> Iterator[tuple[int, str, str]]:
    """Line number, raw text and content of each line whose content is not blank.

    The content is the text ahead of any `#` comment, stripped.  A file that
    is not UTF-8 is refused by its kind (such as "spec file"), name and the
    line of its first bad byte.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text ahead of the bad byte is UTF-8; the byte is on its last line
        number = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise SpecError(f"{kind} {path}: line {number} is not UTF-8 text ({exc.reason})") from None
    for number, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield number, raw, content


def _read_table(path: Path) -> dict[float, float]:
    table: dict[float, float] = {}
    for number, _, line in _content_lines(path, "energy table"):
        x_text, _, v_text = line.partition(",")
        refusal = f"energy table {path}: line {number}: {line!r} is not a distance,value pair"
        x, value = _read_real(x_text, refusal), _read_real(v_text, refusal)
        if x in table:
            raise SpecError(f"energy table {path} repeats distance {x_text.strip()!r}")
        table[x] = value
    if not table:
        raise SpecError(f"energy table {path} is empty")
    return table


def _tie_tol(text: str) -> float:
    """The --tie-tol flag's type: a real that spectrum.check_tie_tol accepts."""
    try:
        return spectrum.check_tie_tol(_read_real(text))
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


def _emit_json(doc: dict, path: Path | None, stream: io.TextIOBase | None = None) -> None:
    """Write doc as indented JSON to path, if given, and print it to stream (default: stdout)."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    if path is not None:
        path.write_text(text + "\n", encoding="utf-8")
    print(text, file=stream)


def _echo(args: argparse.Namespace, dims: GridDims) -> dict:
    """The instance a document describes: the grid's sizes, the metric and f as given."""
    return {"dims": dims.sizes, "metric": args.metric, "f": args.f}


def _check_format(fmt: str, dims: GridDims) -> None:
    """Refuse an output format that cannot show the grid, before any work.

    The ascii-grid picture holds one byte per site, so it is refused above
    the square of the pair-table row limit, as a pair table would be.
    """
    if fmt != "ascii-grid":
        return
    from . import configs

    if dims.ndim > 2:
        raise SpecError("ascii-grid output supports 1- and 2-dimensional grids only")
    if dims.order > configs._MAX_MATRIX_SITES**2:
        raise BudgetExceededError(
            f"refusing ascii-grid output of {dims.order} cells (limit {configs._MAX_MATRIX_SITES ** 2} cells)"
        )


def _render_ascii(config: Configuration) -> str:
    """One line of 0s and 1s per row of the grid; digit i is site i, row-major."""
    order, width = config.dims.order, config.dims.sizes[-1]
    cells = bytearray(b"0") * order
    for i in config.members:
        cells[i] = ord("1")
    return "\n".join(cells[start:start + width].decode() for start in range(0, order, width))


def _read_sites(path: Path, dims: GridDims) -> list[tuple[int, ...]]:
    """The sites of a configuration file, each on the grid and listed once; a refusal names the file and line."""
    line_of: dict[tuple[int, ...], int] = {}
    for number, _, line in _content_lines(path, "configuration file"):
        where = f"bad configuration file {path}: line {number}: {line!r}"
        refusal = f"{where} is not a site of the {dims} grid"
        site = tuple(_read_integer(c, refusal) for c in line.split(","))
        if len(site) != dims.ndim or not all(0 <= c < n for c, n in zip(site, dims.sizes)):
            raise SpecError(refusal)
        if site in line_of:
            raise SpecError(f"{where} repeats the site of line {line_of[site]}")
        line_of[site] = number
    return list(line_of)


def _summary_path(out: Path) -> Path:
    if out.suffix == ".csv":
        return out.with_suffix(".summary.json")
    return out.with_name(out.name + ".summary.json")


def _write_eigen_csv(path: Path | None, table: spectrum.EigenTable) -> None:
    """The `eigs` CSV: a header, then one `j1,...,jd,lambda` line per character, row-major.

    Every byte of it is ASCII, so it is built as bytes from the formatter
    on: the file is opened "wb", and only stdout, a text stream, gets each
    chunk decoded.  Each block entry is formatted once, by `_fmt` one block
    row at a time.  A block row of the leading axes becomes one text: one
    template of "j,%s" lines over the last axis, filled by one `%` with the
    row's texts picked at the last axis's wraps.  That text serves the
    mirrored rows c and n - c of each leading axis.  So every text is held
    until the last row is written, about 6x the block's bytes; holding one
    CSV row at a time would format each entry 2^(d-1) times.  Every text
    is formatted before the file is opened, so a refusal writes nothing.
    """
    dims = table.dims
    leading = dims.sizes[:-1]
    header = (",".join([f"j{i + 1}" for i in range(dims.ndim)] + ["lambda"]) + "\n").encode()
    template = "\n".join([f"{j},%s" for j in range(dims.sizes[-1])]).encode()
    # a tuple of texts, or for a size-1 last axis the one text, which fills the one field
    at_wraps = operator.itemgetter(*axis_wraps(dims.sizes[-1]).tolist())
    bodies = [template % at_wraps(_fmt(values, bytes)) for values in table.block.reshape(-1, table.block.shape[-1])]
    # the block row of each leading coordinate tuple, in row-major order
    body_at = np.arange(len(bodies)).reshape(table.block.shape[:-1])[np.ix_(*map(axis_wraps, leading))].ravel().tolist()

    def chunks() -> Iterator[bytes]:
        yield header
        # rows in row-major character order, the order of itertools.product
        for lead, at in zip(itertools.product(*map(range, leading)), body_at):
            prefix = "".join(f"{c}," for c in lead).encode()
            yield prefix + bodies[at].replace(b"\n", b"\n" + prefix) + b"\n"

    if path is None:
        for chunk in chunks():
            sys.stdout.write(chunk.decode())
    else:
        with open(path, "wb") as handle:
            handle.writelines(chunks())


def _cmd_eigs(args: argparse.Namespace) -> int:
    dims, metric, f = _instance(args)
    table = spectrum.eigen_table(build_kernel(dims, metric, f))
    sol = spectrum.solve_relaxation(table, 0, args.tie_tol)
    summary = {
        **_echo(args, dims),
        "lambda_trivial": sol.lambda_trivial,
        "lambda_min": sol.lambda_min,
        "argmin": sol.argmin_characters,
        "tie_tol": sol.tie_tol,
    }
    _write_eigen_csv(args.out, table)
    if args.out is not None:
        _emit_json(summary, _summary_path(args.out))
    else:
        _emit_json(summary, None, sys.stderr)
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    cert = spectrum.checkerboard_certificate(*_instance(args), args.tie_tol)
    doc = {
        **_echo(args, cert.dims),
        "p": cert.p,
        "certified": cert.certified,
        "lambda_trivial": cert.lambda_trivial,
        "lambda_min": cert.lambda_min,
        "argmin": cert.argmin_characters,
        "offenders": cert.offenders,
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
    from . import configs

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
    # every hit's sites from one listing of the grid's sites, which the kernel
    # matrix's row limit bounds; p = 0 builds no matrix and its hit has no sites
    site_of = index_to_sites(dims, np.arange(dims.order if args.p else 0))
    if args.format == "json":
        doc = {
            **_echo(args, dims),
            "p": args.p,
            "objective": args.objective,
            "top_k": top_k,
            "reduce": reduce,
            "seed": seed,
            "restarts": restarts,
            "results": [
                {"rank": rank, "value": hit.value, "orbit_size": hit.orbit_size,
                 "sites": [site_of[i] for i in hit.config.members]}
                for rank, hit in enumerate(hits, start=1)
            ],
        }
        _emit_json(doc, args.out)
    elif args.format == "csv":
        site_text = [",".join(map(str, site)) for site in site_of]
        rows = [
            [str(rank), value, str(hit.orbit_size), ";".join([site_text[i] for i in hit.config.members])]
            for rank, hit, value in zip(itertools.count(1), hits, _fmt([hit.value for hit in hits]))
        ]
        _write_csv(args.out, ["rank", "value", "orbit_size", "sites"], rows)
    else:
        blocks = [
            f"rank={rank} value={value} orbit_size={hit.orbit_size}\n" + _render_ascii(hit.config)
            for rank, hit, value in zip(itertools.count(1), hits, _fmt([hit.value for hit in hits]))
        ]
        with _out_stream(args.out) as handle:
            handle.write("\n\n".join(blocks) + "\n")
    return EXIT_OK


def _cmd_energy(args: argparse.Namespace) -> int:
    from . import configs

    dims, metric, f = _instance(args)
    _check_format(args.format, dims)
    config = configs.Configuration.from_sites(dims, _read_sites(args.config, dims))
    report = configs.energies(config, metric, f)
    if args.format == "ascii-grid":
        e_tot, e_max = _fmt([report.e_tot, report.e_max])
        text = (
            _render_ascii(config)
            + f"\ne_tot={e_tot} e_max={e_max} equienergetic={'yes' if report.is_equienergetic else 'no'}\n"
        )
        with _out_stream(args.out) as handle:
            handle.write(text)
        return EXIT_OK
    doc = {
        **_echo(args, dims),
        "p": config.p,
        "per_site": [{"site": site, "energy": value} for site, value in report.per_site.items()],
        "e_max": report.e_max,
        "e_tot": report.e_tot,
        "is_equienergetic": report.is_equienergetic,
        "is_empty": report.is_empty,
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    metric, f = Metric(args.metric), parse_energy(args.f)
    dims_list = [GridDims(parse_dims(part)) for part in _read_list(args.dims_list, ";", "--dims-list")]
    # each numeric column is the certificate's attribute of that name
    numeric = ["lambda_min", "gap_to_minus_one", "optimal_value", "checkerboard_e_tot", "checkerboard_e_max",
               "tie_tol"]
    rows = []
    all_certified = True
    for dims in dims_list:
        cert = spectrum.checkerboard_certificate(dims, metric, f, args.tie_tol)
        all_certified = all_certified and cert.certified
        rows.append([str(dims), "true" if cert.certified else "false",
                     *_fmt([getattr(cert, name) for name in numeric])])
    _write_csv(args.out, ["dims", "certified", *numeric], rows)
    return EXIT_OK if all_certified else EXIT_NOT_CERTIFIED


def _cmd_factor_curve(args: argparse.Namespace) -> int:
    from . import analysis

    curve = analysis.factor_curve(args.n, args.a, args.power)
    rows = zip(map(str, range(curve.n)), _fmt(curve.values))
    summary = {
        "n": curve.n,
        "a": curve.a,
        "power": curve.distance_power,
        "argmin": curve.argmin,
        "min_value": curve.min_value,
    }
    _write_csv(args.out, ["k", "value"], rows)
    _emit_json(summary, None, None if args.out is not None else sys.stderr)
    return EXIT_OK


def _cmd_bernstein(args: argparse.Namespace) -> int:
    from . import analysis

    curves = analysis.bernstein_sweep(args.n, args.power, _read_list(args.a_grid, ",", "--a-grid", _read_real))
    header = ["a", "argmin", "is_minus_one_strict_min", "min_value"]
    rows = []
    for c in curves:
        a, min_value = _fmt([c.a, c.min_value])
        flag = "true" if c.is_minus_one_strict_min else "false"
        rows.append([a, ";".join(map(str, c.argmin)), flag, min_value])
    _write_csv(args.out, header, rows)
    return EXIT_OK


# Every flag a command may take; each command registers the ones it reads.
_FLAGS: dict[str, dict] = {
    "--spec": dict(type=Path, help="file of 'key = value' lines keyed by flag dest (e.g. tie_tol); flags override it"),
    "--dims": dict(type=str, required=True, help="grid sizes, e.g. 4,4"),
    "--metric": dict(type=str, choices=sorted(m.value for m in Metric), default="lee", help="distance kind"),
    "--f": dict(type=str, default="inverse-power:1",
                help="energy function: inverse-power:A | exp:A[:sq] | table:PATH"),
    "--p": dict(type=_read_integer, required=True, help="particle count"),
    "--tie-tol": dict(type=_tie_tol, help="eigenvalue tie tolerance (default: scaled 1e-9)"),
    "--budget": dict(type=_read_integer, help="work budget in member pairs (exhaustive method)"),
    "--seed": dict(type=_read_integer, help="random seed (local method; default 0)"),
    "--format": dict(type=str, help="output format (default: the first choice)"),
    "--out": dict(type=Path, help="output file (default: stdout)"),
    "--objective": dict(choices=["total", "max"], default="total"),
    "--top-k": dict(type=_read_integer, help="hits to report (exhaustive method; default 1)"),
    "--reduce": dict(choices=["none", "translations"], help="orbit reduction (exhaustive method; default none)"),
    "--method": dict(choices=["exhaustive", "local"], default="exhaustive"),
    "--restarts": dict(type=_read_integer, help="restarts (local method; default 1)"),
    "--config": dict(type=Path, required=True, help="file of sites, one comma-separated coordinate tuple per line"),
    "--dims-list": dict(type=str, required=True, help="semicolon-separated dims, e.g. '2,2;4,4;8,4'"),
    "--n": dict(type=_read_integer, required=True),
    "--a": dict(type=_read_real, required=True),
    "--power": dict(type=_read_integer, choices=[1, 2], default=1),
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


def _add_flags(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """The parser, given the flags of the command name."""
    command = _COMMANDS[name]
    for flag in command.flags:
        options = dict(_FLAGS[flag])
        if flag == "--format":
            options.update(choices=command.formats, default=command.formats[0])
        parser.add_argument(flag, **options)
    return parser


# no abbreviations, so that sweep refuses --dims rather than read it as --dims-list
@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the command name; main parses each command line with it, built on first use."""
    return _add_flags(argparse.ArgumentParser(prog=f"toric-lab {name}", allow_abbrev=False), name)


def _top_parser() -> argparse.ArgumentParser:
    """The parser of the whole command line, which only -h and a missing or unknown command need."""
    parser = argparse.ArgumentParser(
        prog="toric-lab",
        description="Spectral certificates and configuration search for repelling particles on toric grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each with its flags: a command named after another word (`-x certify --dims 4,4`) is parsed as well
    for name, command in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=command.help, allow_abbrev=False), name)
    return parser


def _spec_flags(path: Path, command: str) -> list[str]:
    """A spec file's `key = value` lines as `--flag=value` arguments of the command.

    Each key is the dest argparse gives a flag of the command (`tie_tol` for
    `--tie-tol`); a key set twice, or naming no such flag, is refused.
    """
    keys: dict[str, str] = {}
    for _, raw, line in _content_lines(path, "spec file"):
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
        _top_parser().parse_args(argv)  # prints the help or the error and exits
    name, flags = argv[0], argv[1:]
    command = _COMMANDS[name]
    if "--spec" in command.flags:
        try:
            path = _SPEC_FLAG.parse_known_args(flags)[0].spec
        except argparse.ArgumentError:  # such as --spec without a file: the full parse reports it
            path = None
        if path is not None:
            flags = [*_spec_flags(path, name), *flags]
    return command, _command_parser(name).parse_args(flags)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        # every non-finite result is refused by name below: numpy's warnings
        # about the overflow behind it would only precede that one line
        with np.errstate(all="ignore"):
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
