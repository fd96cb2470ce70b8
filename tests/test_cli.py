import csv
import io
import json
from importlib import resources

import jsonschema
import pytest

from toric_lab import cli, spectrum
from toric_lab.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_NOT_CERTIFIED,
    EXIT_OK,
    EXIT_SPEC,
    SpecError,
    _build_parser,
    main,
    parse_dims,
    parse_energy,
)
from toric_lab.energy import ExponentialAtom, InversePower, Tabulated, build_kernel
from toric_lab.grid import GridDims, Metric
from toric_lab.spectrum import eigen_table

from support import eigs_csv_oracle, eigs_summary_oracle


def load_schema(name):
    text = resources.files("toric_lab.schemas").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_parse_dims(self):
        assert parse_dims("4,4") == (4, 4)
        assert parse_dims("4x4") == (4, 4)
        assert parse_dims("8") == (8,)
        with pytest.raises(SpecError):
            parse_dims("")
        with pytest.raises(SpecError):
            parse_dims("a,b")

    @pytest.mark.parametrize("text", ["4,,4", "4,4,", ",4", "4x4x", "4, ,4", "x4"])
    def test_parse_dims_refuses_empty_size(self, text):
        with pytest.raises(SpecError, match="empty size"):
            parse_dims(text)

    def test_parse_dims_allows_spaces_and_x(self):
        assert parse_dims(" 4 x 6 , 2 ") == (4, 6, 2)

    @pytest.mark.parametrize("argv", [
        ("certify", "--dims", "4,,4"),
        ("eigs", "--dims", "4,4,"),
        ("sweep", "--dims-list", "2,2;4,,4"),
    ])
    def test_empty_size_exit_2(self, capsys, argv):
        code, stdout, err = run(capsys, *argv)
        assert code == EXIT_SPEC
        assert stdout == ""
        assert "empty size" in err

    @pytest.mark.parametrize("argv, text", [
        (("sweep", "--dims-list", "2,2;;4,4"), "'2,2;;4,4'"),
        (("sweep", "--dims-list", "2,2;4,4;"), "'2,2;4,4;'"),
        (("sweep", "--dims-list", "2,2; ;4,4"), "'2,2; ;4,4'"),
        (("bernstein", "--n", "8", "--a-grid", "1.5,,2"), "'1.5,,2'"),
        (("bernstein", "--n", "8", "--a-grid", "1.5,2,"), "'1.5,2,'"),
        (("bernstein", "--n", "8", "--a-grid", "1.5, ,2"), "'1.5, ,2'"),
    ])
    def test_empty_list_entry_exit_2(self, capsys, argv, text):
        code, stdout, err = run(capsys, *argv)
        assert code == EXIT_SPEC
        assert stdout == ""
        assert err == f"error: empty entry in {argv[-2]} {text}\n"

    def test_empty_size_in_spec_exit_2(self, capsys, tmp_path):
        code, stdout, err = run(capsys, "certify", "--spec", write_spec(tmp_path, "dims = 4,,4\n"))
        assert code == EXIT_SPEC
        assert stdout == ""
        assert "'4,,4'" in err

    def test_parse_energy(self):
        assert parse_energy("inverse-power:1") == InversePower(1.0)
        assert parse_energy("exp:1.05") == ExponentialAtom(1.05, "distance")
        assert parse_energy("exp:1.05:sq") == ExponentialAtom(1.05, "distance_squared")
        with pytest.raises(SpecError):
            parse_energy("inverse-power:zero")
        with pytest.raises(SpecError):
            parse_energy("spring:2")
        with pytest.raises(SpecError):
            parse_energy("exp:1.05:cubed")

    def test_parse_energy_table(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("# distance, force\n1, 1.0\n2, 0.5\n", encoding="utf-8")
        f = parse_energy(f"table:{path}")
        assert isinstance(f, Tabulated)
        assert f(1) == 1.0
        assert f(2) == 0.5


def write_spec(tmp_path, text):
    path = tmp_path / "instance.spec"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSpecFile:
    """A spec file's keys are the command's flags by dest name, read by the same parse."""

    @pytest.mark.parametrize("text, flags", [
        (
            "dims = 4,4\nmetric = lee\nf = inverse-power:1\np = 8\nbudget = 10000000000\n"
            "top_k = 3\nreduce = translations\nobjective = max\nformat = csv\n",
            ("--dims", "4,4", "--metric", "lee", "--f", "inverse-power:1", "--p", "8",
             "--budget", "10000000000", "--top-k", "3", "--reduce", "translations",
             "--objective", "max", "--format", "csv"),
        ),
        (
            "dims = 6,6\nmetric = chebyshev\np = 18\nmethod = local\nrestarts = 3\nseed = 7\n",
            ("--dims", "6,6", "--metric", "chebyshev", "--p", "18", "--method", "local",
             "--restarts", "3", "--seed", "7"),
        ),
    ], ids=["exhaustive", "local"])
    def test_search_keys_read_as_flags(self, capsys, tmp_path, text, flags):
        code, stdout, _ = run(capsys, "search", "--spec", write_spec(tmp_path, text))
        assert (code, stdout) == run(capsys, "search", *flags)[:2]
        assert code == EXIT_OK

    def test_omitted_keys_take_flag_defaults(self, capsys, tmp_path):
        path = write_spec(tmp_path, "dims = 8\nmetric = euclid-sq\nf = exp:1.05\n")
        code, stdout, _ = run(capsys, "certify", "--spec", path)
        assert code == EXIT_NOT_CERTIFIED
        assert stdout == run(capsys, "certify", "--dims", "8", "--metric", "euclid-sq", "--f", "exp:1.05")[1]
        _, stdout, _ = run(capsys, "certify", "--spec", write_spec(tmp_path, "dims = 4,4\n"))
        doc = json.loads(stdout)
        assert (doc["metric"], doc["f"]) == ("lee", "inverse-power:1")
        assert doc["tie_tol"] == pytest.approx(1e-9 * (1 + abs(doc["lambda_min"])))

    def test_comments_and_blank_lines(self, capsys, tmp_path):
        text = "# instance\ndims = 4,4\n\nmetric = lee  # wrap metric\nf = inverse-power:1\n"
        code, stdout, _ = run(capsys, "certify", "--spec", write_spec(tmp_path, text))
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert (doc["dims"], doc["metric"]) == ([4, 4], "lee")

    @pytest.mark.parametrize("command, text, named", [
        ("certify", "dims = 4,4\ncolour = blue\n", "colour = 'blue'"),
        ("certify", "dims = 4,4\nthreads = 2\n", "threads = '2'"),
        ("certify", "dims = 4,4\nspec = other.spec\n", "spec = 'other.spec'"),
        ("certify", "metric = lee\n", "--dims"),
        ("certify", "dims = 4,4\nformat = bogus\n", "format = 'bogus'"),
        ("search", "dims = 4,4\np = 2\nformat = bogus\n", "'bogus'"),
        ("search", "dims = 4,4\np = two\n", "--p"),
        ("certify", "dims 4,4\n", "'dims 4,4'"),
    ], ids=["unknown", "threads", "spec", "no-dims", "certify-format", "search-format", "bad-int",
            "no-equals"])
    def test_bad_spec_exit_2(self, capsys, tmp_path, command, text, named):
        code, stdout, err = run(capsys, command, "--spec", write_spec(tmp_path, text))
        assert code == EXIT_SPEC
        assert stdout == ""
        assert named in err

    def test_spec_without_path_exit_2(self, capsys):
        code, stdout, err = run(capsys, "certify", "--dims", "4,4", "--spec")
        assert (code, stdout) == (EXIT_SPEC, "")
        assert "--spec: expected one argument" in err

    def test_missing_spec_file_exit_4(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "certify", "--spec", str(tmp_path / "nope.spec"))
        assert code == EXIT_IO
        assert stdout == ""

    def test_unread_keys_named_with_values(self, capsys, tmp_path):
        path = write_spec(tmp_path, "dims = 4,4\np = 3\nseed = 5\n")
        code, stdout, err = run(capsys, "certify", "--spec", path)
        assert code == EXIT_SPEC
        assert stdout == ""
        assert "p = '3'" in err and "seed = '5'" in err

    @pytest.mark.parametrize("text, flag", [
        ("dims = 4,2\np = 3\nseed = 5\n", "--seed 5"),
        ("dims = 4,2\np = 3\nmethod = local\nbudget = 1\n", "--budget 1"),
    ], ids=["exhaustive-seed", "local-budget"])
    def test_search_key_of_other_method_exit_2(self, capsys, tmp_path, text, flag):
        code, stdout, err = run(capsys, "search", "--spec", write_spec(tmp_path, text))
        assert code == EXIT_SPEC
        assert stdout == ""
        assert flag in err

    def test_required_flag_from_spec(self, capsys, tmp_path):
        path = write_spec(tmp_path, "dims_list = 2,2;4,4\nf = inverse-power:2\n")
        code, stdout, _ = run(capsys, "sweep", "--spec", path)
        assert code == EXIT_OK
        assert stdout == run(capsys, "sweep", "--dims-list", "2,2;4,4", "--f", "inverse-power:2")[1]
        assert len(stdout.splitlines()) == 3


class TestEigsCommand:
    def test_4x4_summary_and_csv(self, capsys, tmp_path):
        out = tmp_path / "eigs.csv"
        code, stdout, _ = run(
            capsys, "eigs", "--dims", "4,4", "--metric", "lee",
            "--f", "inverse-power:1", "--out", str(out),
        )
        assert code == EXIT_OK
        summary = json.loads(stdout)
        jsonschema.validate(summary, load_schema("eigs-summary.schema.json"))
        assert summary["lambda_min"] == pytest.approx(-25.0 / 12.0)
        assert summary["argmin"] == [[2, 2]]
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == ["j1", "j2", "lambda"]
        assert len(rows) == 17
        table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows[1:]}
        assert table[(2, 2)] == pytest.approx(-25.0 / 12.0, abs=1e-13)
        sidecar = json.loads((tmp_path / "eigs.summary.json").read_text(encoding="utf-8"))
        assert sidecar == summary

    def test_10x10_weak_power_argmin(self, capsys, tmp_path):
        out = tmp_path / "eigs.csv"
        code, stdout, _ = run(
            capsys, "eigs", "--dims", "10,10", "--f", "inverse-power:0.3", "--out", str(out),
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["argmin"] == [[5, 5]]

    def test_two_site_grid(self, capsys):
        code, stdout, err = run(capsys, "eigs", "--dims", "2", "--f", "inverse-power:1")
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[0] == "j1,lambda"
        assert len(lines) == 3
        # without --out the summary still appears, on the other stream
        assert json.loads(err)["lambda_min"] == pytest.approx(-1.0)

    def test_summary_beside_out_without_csv_suffix(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        code, stdout, _ = run(capsys, "eigs", "--dims", "4,4", "--out", str(out))
        assert code == EXIT_OK
        assert (tmp_path / "t.txt.summary.json").read_text(encoding="utf-8") == stdout
        assert out.read_text(encoding="utf-8").startswith("j1,j2,lambda\n")

    def test_invalid_metric_exits_2(self, capsys):
        code, _, _ = run(capsys, "eigs", "--dims", "4,4", "--metric", "manhattan")
        assert code == EXIT_SPEC


class TestCertifyCommand:
    def test_4x4_certified(self, capsys):
        code, stdout, _ = run(capsys, "certify", "--dims", "4,4", "--f", "inverse-power:1")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        jsonschema.validate(doc, load_schema("certificate.schema.json"))
        assert doc["certified"] is True
        assert doc["checkerboard_e_tot"] == pytest.approx(26.0)
        assert doc["optimal_value"] == pytest.approx(26.0)

    def test_euclid_sq_exponential_refused(self, capsys):
        code, stdout, _ = run(
            capsys, "certify", "--dims", "8", "--metric", "euclid-sq", "--f", "exp:1.05",
        )
        assert code == EXIT_NOT_CERTIFIED
        doc = json.loads(stdout)
        jsonschema.validate(doc, load_schema("certificate.schema.json"))
        assert doc["certified"] is False
        assert doc["offenders"] == [[2], [6]]
        assert doc["gap_to_minus_one"] > 0

    def test_mixed_dims_certified(self, capsys):
        code, stdout, _ = run(capsys, "certify", "--dims", "4,8,2", "--f", "inverse-power:2")
        assert code == EXIT_OK
        assert json.loads(stdout)["certified"] is True

    def test_euclid_table_with_rounded_keys(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("1, 1.0\n1.4142135623731, 0.5\n", encoding="utf-8")
        code, stdout, err = run(
            capsys, "certify", "--dims", "2,2", "--metric", "euclid", "--f", f"table:{table}",
        )
        assert code == EXIT_OK, err
        doc = json.loads(stdout)
        assert doc["certified"] is True
        assert doc["checkerboard_e_max"] == pytest.approx(0.5, rel=1e-12)

    def test_repeated_spec_key_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "twice.spec"
        spec.write_text("dims = 4,4\nf = inverse-power:1\ndims = 2,2\n", encoding="utf-8")
        code, stdout, err = run(capsys, "certify", "--spec", str(spec))
        assert code == EXIT_SPEC
        assert stdout == ""
        assert "'dims'" in err

    def test_repeated_table_distance_exit_2(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("1, 1.0\n2, 0.5\n1, 0.25\n", encoding="utf-8")
        code, stdout, err = run(capsys, "certify", "--dims", "4,4", "--f", f"table:{table}")
        assert code == EXIT_SPEC
        assert stdout == ""
        assert "repeats distance '1'" in err

    def test_empty_table_exit_2(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("# distance, value\n\n", encoding="utf-8")
        code, stdout, err = run(capsys, "certify", "--dims", "4,4", "--f", f"table:{table}")
        assert (code, stdout) == (EXIT_SPEC, "")
        assert f"energy table {table} is empty" in err

    def test_odd_dims_exit_2(self, capsys):
        code, _, err = run(capsys, "certify", "--dims", "3,4", "--f", "inverse-power:1")
        assert code == EXIT_SPEC
        assert "even" in err

    @pytest.mark.parametrize("command", ["certify", "eigs", "sweep"])
    @pytest.mark.parametrize("tie_tol", ["-1", "nan", "inf"])
    def test_bad_tie_tol_exit_2(self, capsys, tmp_path, monkeypatch, command, tie_tol):
        # refused when the flags are parsed, before any kernel is built
        def refuse(*args):
            raise AssertionError("kernel built for a refused --tie-tol")

        monkeypatch.setattr(cli, "build_kernel", refuse)
        monkeypatch.setattr(spectrum, "build_kernel", refuse)
        grid = ("--dims-list", "4,4") if command == "sweep" else ("--dims", "4,4")
        for source in (("--tie-tol", tie_tol), ("--spec", write_spec(tmp_path, f"tie_tol = {tie_tol}\n"))):
            code, stdout, err = run(capsys, command, *grid, *source)
            assert code == EXIT_SPEC
            assert stdout == ""
            assert "tie_tol must be finite and >= 0" in err

    def test_zero_tie_tol_output_matches_schemas(self, capsys, tmp_path):
        # --tie-tol accepts 0, so the schemas must accept the 0.0 it writes
        code, stdout, _ = run(capsys, "certify", "--dims", "4,4", "--tie-tol", "0")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["tie_tol"] == 0.0
        jsonschema.validate(doc, load_schema("certificate.schema.json"))
        out = tmp_path / "e.csv"
        code, stdout, _ = run(capsys, "eigs", "--dims", "4,4", "--tie-tol", "0", "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads(stdout)
        assert summary["tie_tol"] == 0.0
        jsonschema.validate(summary, load_schema("eigs-summary.schema.json"))

    def test_out_file_written(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, stdout, _ = run(
            capsys, "certify", "--dims", "4,4", "--f", "inverse-power:1", "--out", str(out),
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8")) == json.loads(stdout)


class TestSearchCommand:
    def test_checkerboards_ascii(self, capsys):
        code, stdout, _ = run(
            capsys, "search", "--dims", "4,4", "--f", "inverse-power:1",
            "--p", "8", "--objective", "max", "--top-k", "2", "--format", "ascii-grid",
        )
        assert code == EXIT_OK
        blocks = stdout.strip().split("\n\n")
        assert len(blocks) == 2
        grids = ["\n".join(b.splitlines()[1:]) for b in blocks]
        assert "1010\n0101\n1010\n0101" in grids
        assert "0101\n1010\n0101\n1010" in grids

    def test_json_output_validates(self, capsys):
        code, stdout, _ = run(
            capsys, "search", "--dims", "4,4", "--f", "inverse-power:1",
            "--p", "4", "--top-k", "3", "--reduce", "translations",
        )
        assert code == EXIT_OK
        doc = json.loads(stdout)
        jsonschema.validate(doc, load_schema("search-result.schema.json"))
        assert [r["value"] for r in doc["results"]] == sorted(r["value"] for r in doc["results"])
        assert doc["results"][0]["orbit_size"] >= 1

    def test_csv_output(self, capsys):
        code, stdout, _ = run(
            capsys, "search", "--dims", "2,2", "--f", "inverse-power:1",
            "--p", "2", "--top-k", "2", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == ["rank", "value", "orbit_size", "sites"]
        assert len(rows) == 3

    def test_local_method_deterministic(self, capsys):
        argv = [
            "search", "--dims", "6,6", "--metric", "chebyshev", "--f", "inverse-power:1",
            "--p", "18", "--objective", "max", "--method", "local", "--restarts", "40",
            "--seed", "11",
        ]
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_budget_exit_3(self, capsys):
        code, _, err = run(
            capsys, "search", "--dims", "6,6", "--f", "inverse-power:1",
            "--p", "18", "--budget", "1000",
        )
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_missing_p_exit_2(self, capsys):
        code, _, _ = run(capsys, "search", "--dims", "4,4", "--f", "inverse-power:1")
        assert code == EXIT_SPEC

    def test_negative_budget_exit_2(self, capsys):
        code, stdout, err = run(capsys, "search", "--dims", "4,2", "--p", "3", "--budget", "-1")
        assert (code, stdout) == (EXIT_SPEC, "")
        assert "budget must be at least 0, got -1" in err
        # a zero budget is still a work refusal
        assert run(capsys, "search", "--dims", "4,2", "--p", "3", "--budget", "0")[0] == EXIT_BUDGET

    def test_ascii_grid_on_3d_grid_exit_2_before_work(self, capsys):
        # C(64, 32) * 32^2 member pairs would exceed the budget (exit 3) were the format not refused first
        code, stdout, err = run(capsys, "search", "--dims", "4,4,4", "--p", "32", "--format", "ascii-grid")
        assert (code, stdout) == (EXIT_SPEC, "")
        assert "ascii-grid output supports 1- and 2-dimensional grids only" in err


class TestEnergyCommand:
    def test_row_configuration(self, capsys, tmp_path):
        config = tmp_path / "row.txt"
        config.write_text("0,0\n0,1\n0,2\n0,3\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys, "energy", "--dims", "4,4", "--f", "inverse-power:1",
            "--config", str(config),
        )
        assert code == EXIT_OK
        doc = json.loads(stdout)
        jsonschema.validate(doc, load_schema("energy-report.schema.json"))
        assert doc["e_tot"] == pytest.approx(10.0)
        assert doc["p"] == 4

    def test_ascii_format(self, capsys, tmp_path):
        config = tmp_path / "pair.txt"
        config.write_text("0,0\n1,1\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys, "energy", "--dims", "2,2", "--f", "inverse-power:1",
            "--config", str(config), "--format", "ascii-grid",
        )
        assert code == EXIT_OK
        assert stdout.startswith("10\n01\n")
        assert "e_tot=" in stdout

    def test_ascii_format_keeps_orientation(self, capsys, tmp_path):
        # a picture that differs from its reversal: rows top to bottom, columns left to right
        config = tmp_path / "corners.txt"
        config.write_text("0,1\n2,3\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "energy", "--dims", "3,4", "--config", str(config), "--format", "ascii-grid")
        assert code == EXIT_OK
        assert stdout.startswith("0100\n0000\n0001\ne_tot=")

    def test_oversized_configuration_exit_3(self, capsys, tmp_path):
        config = tmp_path / "big.txt"
        config.write_text("".join(f"{i // 64},{i % 64}\n" for i in range(2049)), encoding="utf-8")
        code, _, err = run(
            capsys, "energy", "--dims", "64,64", "--f", "inverse-power:1",
            "--config", str(config),
        )
        assert code == EXIT_BUDGET
        assert "2049 x 2049" in err

    def test_csv_format_exit_2(self, capsys, tmp_path):
        config = tmp_path / "pair.txt"
        config.write_text("0,0\n1,1\n", encoding="utf-8")
        code, stdout, err = run(
            capsys, "energy", "--dims", "2,2", "--f", "inverse-power:1",
            "--config", str(config), "--format", "csv",
        )
        assert code == EXIT_SPEC
        assert stdout == ""
        assert "json" in err and "ascii-grid" in err

    @pytest.mark.parametrize("lines, named", [
        ("0,0\n1,1\n# again\n0,0\n", "line 4: '0,0' repeats the site of line 1"),
        ("0,0\n4,1\n", "line 2: '4,1' is not a site of the 4x4 grid"),
        ("0,-1\n", "line 1: '0,-1' is not a site"),
        ("0,0,0\n", "line 1: '0,0,0' is not a site"),
    ], ids=["repeated", "out-of-range", "negative", "three-coordinates"])
    def test_bad_site_exit_2(self, capsys, tmp_path, lines, named):
        config = tmp_path / "sites.txt"
        config.write_text(lines, encoding="utf-8")
        code, stdout, err = run(capsys, "energy", "--dims", "4,4", "--config", str(config))
        assert code == EXIT_SPEC
        assert stdout == ""
        assert named in err

    def test_missing_file_exit_4(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "energy", "--dims", "4,4", "--f", "inverse-power:1",
            "--config", str(tmp_path / "nope.txt"),
        )
        assert code == EXIT_IO

    def test_ascii_grid_on_3d_grid_exit_2_before_reading(self, capsys, tmp_path):
        # the configuration file is never read, so its absence is not reported
        code, stdout, err = run(
            capsys, "energy", "--dims", "2,2,2", "--config", str(tmp_path / "nope.txt"),
            "--format", "ascii-grid",
        )
        assert (code, stdout) == (EXIT_SPEC, "")
        assert "ascii-grid output supports 1- and 2-dimensional grids only" in err

    def test_ascii_grid_1d(self, capsys, tmp_path):
        config = tmp_path / "ends.txt"
        config.write_text("0\n5\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "energy", "--dims", "6", "--config", str(config), "--format", "ascii-grid")
        assert code == EXIT_OK
        assert stdout.startswith("100001\ne_tot=")


class TestSweepCommand:
    def test_all_certified(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "--dims-list", "2,2;4,4;8,4", "--f", "inverse-power:1",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0][0] == "dims"
        assert len(rows) == 4
        assert all(r[1] == "true" for r in rows[1:])

    def test_refusal_propagates(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "--dims-list", "4,4;8", "--metric", "euclid-sq", "--f", "exp:1.05",
        )
        assert code == EXIT_NOT_CERTIFIED
        rows = list(csv.reader(io.StringIO(stdout)))
        states = {r[0]: r[1] for r in rows[1:]}
        assert states["8"] == "false"

    def test_blank_dims_list_exit_2(self, capsys):
        code, stdout, err = run(capsys, "sweep", "--dims-list", " ")
        assert (code, stdout, err) == (EXIT_SPEC, "", "error: sweep needs at least one dims entry\n")

    def test_dims_flag_rejected(self, capsys):
        code, stdout, err = run(
            capsys, "sweep", "--dims", "4,4", "--dims-list", "2,2", "--f", "inverse-power:1",
        )
        assert code == EXIT_SPEC
        assert stdout == ""
        assert "--dims 4,4" in err


class TestCurveCommands:
    def test_factor_curve_csv(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, stdout, _ = run(
            capsys, "factor-curve", "--n", "8", "--a", "1.05", "--power", "2",
            "--out", str(out),
        )
        assert code == EXIT_OK
        summary = json.loads(stdout)
        assert summary["argmin"] == [2, 6]
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == ["k", "value"]
        values = {int(r[0]): float(r[1]) for r in rows[1:]}
        assert values[4] > values[2]

    def test_bernstein_csv(self, capsys):
        code, stdout, _ = run(
            capsys, "bernstein", "--n", "8", "--power", "1", "--a-grid", "1.01,1.5,2,10",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == ["a", "argmin", "is_minus_one_strict_min", "min_value"]
        assert all(r[2] == "true" and r[1] == "4" for r in rows[1:])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("factor-curve", "--n", "1", "--a", "2"), "cycle length must be at least 2, got 1"),
            (("factor-curve", "--n", "8", "--a", "0.9"), "base must exceed 1, got 0.9"),
            (("bernstein", "--n", "8", "--power", "1", "--a-grid", ""), "a_grid must be nonempty"),
            (("bernstein", "--n", "8", "--power", "1", "--a-grid", "abc"),
             "could not convert string to float: 'abc'"),
        ],
    )
    def test_library_value_errors_exit_2(self, capsys, argv, message):
        # main reports a ValueError raised by the analysis layer like any spec error
        assert run(capsys, *argv) == (EXIT_SPEC, "", f"error: {message}\n")


class TestSpecFileFlow:
    def test_spec_file_with_flag_override(self, capsys, tmp_path):
        path = write_spec(tmp_path, "dims = 4,4\nmetric = lee\nf = inverse-power:1\n")
        code, stdout, _ = run(capsys, "certify", "--spec", path)
        assert code == EXIT_OK
        assert json.loads(stdout)["metric"] == "lee"
        # overriding the metric on the command line wins over the file, before or after --spec
        code2, stdout2, _ = run(capsys, "certify", "--spec", path, "--metric", "chebyshev")
        assert json.loads(stdout2)["metric"] == "chebyshev"
        code3, stdout3, _ = run(capsys, "certify", "--metric", "chebyshev", "--spec", path)
        assert stdout3 == stdout2

    def test_float_serialisation_round_trips(self, capsys, tmp_path):
        path = write_spec(tmp_path, f"dims = 4\ntie_tol = {0.1 + 0.2!r}\n")
        code, stdout, _ = run(capsys, "certify", "--spec", path)
        assert code == EXIT_OK
        assert json.loads(stdout)["tie_tol"] == 0.1 + 0.2

    def test_budget_flag_overrides_default(self, capsys):
        # C(8, 3) * 3^2 = 504 member pairs, far below the default budget
        argv = ("search", "--dims", "4,2", "--f", "inverse-power:1", "--p", "3")
        assert run(capsys, *argv)[0] == EXIT_OK
        code, stdout, err = run(capsys, *argv, "--budget", "503")
        assert (code, stdout) == (EXIT_BUDGET, "")
        assert "5.040e+02 member pairs exceeds budget 5.030e+02" in err
        assert run(capsys, *argv, "--budget", "504")[0] == EXIT_OK

    def test_unwritable_out_exit_4(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "certify", "--dims", "4,4", "--f", "inverse-power:1",
            "--out", str(tmp_path / "missing-dir" / "cert.json"),
        )
        assert code == EXIT_IO

    def test_memory_error_exit_3(self, capsys, monkeypatch):
        def exhaust(*args):
            raise MemoryError

        monkeypatch.setattr(spectrum, "eigen_table", exhaust)
        code, stdout, err = run(capsys, "certify", "--dims", "4,4")
        assert (code, stdout, err) == (EXIT_BUDGET, "", "error: allocation refused\n")

    def test_no_command_exit_2(self, capsys):
        assert main([]) == EXIT_SPEC

    def test_csv_uses_17_significant_digits(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "--dims-list", "4,4", "--f", "inverse-power:1",
        )
        assert code == EXIT_OK
        row = list(csv.reader(io.StringIO(stdout)))[1]
        assert float(row[4]) == 25.999999999999996


class TestParserReuse:
    """The parsers are built once, at import, and every main call starts afresh."""

    def test_main_does_not_build_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        assert run(capsys, "certify", "--dims", "4,4")[0] == EXIT_OK
        assert run(capsys, "search", "--dims", "4,2", "--p", "3")[0] == EXIT_OK
        assert run(capsys, "certify", "--dims", "4,4", "--p", "3")[0] == EXIT_SPEC
        assert run(capsys, "bogus")[0] == EXIT_SPEC

    def test_flags_not_carried_over(self, capsys):
        argv = ("search", "--dims", "4,2", "--p", "3")
        assert json.loads(run(capsys, *argv, "--top-k", "3")[1])["top_k"] == 3
        code, stdout, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(stdout)["top_k"] == 1
        assert len(json.loads(stdout)["results"]) == 1

    def test_spec_not_carried_over(self, capsys, tmp_path):
        path = write_spec(tmp_path, "dims = 4,4\ntie_tol = 0.5\n")
        assert json.loads(run(capsys, "certify", "--spec", path)[1])["tie_tol"] == 0.5
        code, stdout, _ = run(capsys, "certify", "--dims", "4,4")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["tie_tol"] == pytest.approx(1e-9 * (1 + abs(doc["lambda_min"])))

    def test_failed_parse_then_valid_call(self, capsys):
        assert run(capsys, "certify", "--dims", "4,4", "--metric", "manhattan")[0] == EXIT_SPEC
        assert run(capsys, "certify")[0] == EXIT_SPEC
        code, stdout, err = run(capsys, "certify", "--dims", "4,4")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(stdout)["metric"] == "lee"

    def test_help_lists_commands(self, capsys):
        code, stdout, _ = run(capsys, "-h")
        assert code == EXIT_OK
        assert stdout.startswith("usage: toric-lab [-h]")
        for name in COMMAND_FLAGS:
            assert name in stdout

    def test_unknown_command_exit_2(self, capsys):
        code, stdout, err = run(capsys, "bogus")
        assert (code, stdout) == (EXIT_SPEC, "")
        assert "invalid choice: 'bogus'" in err


# The flags each command reads, and nothing else.
COMMAND_FLAGS = {
    "eigs": {"--spec", "--dims", "--metric", "--f", "--tie-tol", "--out"},
    "certify": {"--spec", "--dims", "--metric", "--f", "--tie-tol", "--out"},
    "sweep": {"--spec", "--metric", "--f", "--tie-tol", "--out", "--dims-list"},
    "energy": {"--spec", "--dims", "--metric", "--f", "--format", "--out", "--config"},
    "search": {
        "--spec", "--dims", "--metric", "--f", "--p", "--budget", "--seed", "--format", "--out",
        "--objective", "--top-k", "--reduce", "--method", "--restarts",
    },
    "factor-curve": {"--n", "--a", "--power", "--out"},
    "bernstein": {"--n", "--power", "--a-grid", "--out"},
}

# A valid invocation of each instance command, to which one unread flag is added.
BASE_ARGV = {
    "eigs": ("eigs", "--dims", "2"),
    "certify": ("certify", "--dims", "4,4"),
    "sweep": ("sweep", "--dims-list", "2,2"),
    "energy": ("energy", "--dims", "2,2", "--config", "sites.txt"),
    "search": ("search", "--dims", "4,2", "--p", "3"),
}

REMOVED_FLAGS = [
    ("eigs", "--p", "3"), ("eigs", "--budget", "1"), ("eigs", "--seed", "5"),
    ("eigs", "--format", "csv"),
    ("certify", "--p", "3"), ("certify", "--budget", "1"), ("certify", "--seed", "5"),
    ("certify", "--format", "csv"),
    ("sweep", "--p", "2"), ("sweep", "--budget", "1"), ("sweep", "--seed", "5"),
    ("sweep", "--format", "csv"),
    ("energy", "--p", "2"), ("energy", "--tie-tol", "0.1"), ("energy", "--budget", "1"),
    ("energy", "--seed", "5"),
    ("search", "--tie-tol", "0.1"),
]


class TestCommandFlags:
    def test_option_sets_match_table(self):
        _, commands = _build_parser()
        options = {
            name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
            for name, p in commands.items()
        }
        assert options == COMMAND_FLAGS
        assert sum(len(flags) for flags in options.values()) == 47

    @pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
    def test_removed_flag_exit_2(self, capsys, command, flag, value):
        code, stdout, err = run(capsys, *BASE_ARGV[command], flag, value)
        assert code == EXIT_SPEC
        assert stdout == ""
        assert f"{flag} {value}" in err

    def test_unread_flag_shows_command_usage(self, capsys):
        code, stdout, err = run(capsys, "certify", "--dims", "4,4", "--p", "3")
        assert code == EXIT_SPEC
        assert stdout == ""
        assert err.startswith("usage: toric-lab certify [-h] [--spec SPEC] --dims DIMS")
        assert "toric-lab certify: error: unrecognized arguments: --p 3" in err

    @pytest.mark.parametrize("extra, flag", [
        (("--method", "local", "--top-k", "5"), "--top-k"),
        (("--method", "local", "--reduce", "translations"), "--reduce"),
        (("--method", "local", "--budget", "100"), "--budget"),
        (("--restarts", "3"), "--restarts"),
        (("--method", "exhaustive", "--seed", "4"), "--seed"),
    ])
    def test_search_flag_of_other_method_exit_2(self, capsys, extra, flag):
        code, stdout, err = run(capsys, *BASE_ARGV["search"], *extra)
        assert code == EXIT_SPEC
        assert stdout == ""
        assert flag in err

    @pytest.mark.parametrize("command, fmt", [("certify", "csv"), ("eigs", "json"), ("sweep", "json")])
    def test_spec_format_not_written_exit_2(self, capsys, tmp_path, command, fmt):
        path = tmp_path / "instance.spec"
        path.write_text(f"dims = 4,4\nformat = {fmt}\n", encoding="utf-8")
        argv = ("sweep", "--dims-list", "2,2") if command == "sweep" else (command,)
        code, stdout, err = run(capsys, *argv, "--spec", str(path))
        assert code == EXIT_SPEC
        assert stdout == ""
        assert repr(fmt) in err

    def test_spec_format_written(self, capsys, tmp_path):
        path = tmp_path / "instance.spec"
        path.write_text("dims = 2,2\nf = inverse-power:1\nformat = ascii-grid\n", encoding="utf-8")
        config = tmp_path / "pair.txt"
        config.write_text("0,0\n1,1\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "energy", "--spec", str(path), "--config", str(config))
        assert code == EXIT_OK
        assert stdout.startswith("10\n01\n")

    def test_spec_without_format_writes_first_format(self, capsys, tmp_path):
        path = write_spec(tmp_path, "dims = 4,2\np = 3\n")
        code, stdout, _ = run(capsys, "search", "--spec", path)
        assert code == EXIT_OK
        jsonschema.validate(json.loads(stdout), load_schema("search-result.schema.json"))

    def test_max_swap_tensor_exit_3(self, capsys):
        code, stdout, err = run(
            capsys, "search", "--dims", "32,32", "--p", "512", "--objective", "max",
            "--method", "local",
        )
        assert code == EXIT_BUDGET
        assert stdout == ""
        assert "swap terms" in err


def test_eigs_csv_rows_in_site_order(capsys, tmp_path):
    out = tmp_path / "eigs.csv"
    code, _, _ = run(
        capsys, "eigs", "--dims", "4,2,6", "--metric", "euclid", "--f", "exp:2", "--out", str(out),
    )
    assert code == EXIT_OK
    table = eigen_table(build_kernel(GridDims((4, 2, 6)), Metric.EUCLIDEAN, ExponentialAtom(2.0)))
    assert out.read_bytes() == eigs_csv_oracle(table).encode("utf-8")


EIGS_GRIDS = [(1,), (2,), (9,), (1, 6), (5, 2, 7), (3, 3, 3), (4, 2, 6), (10, 10)]


class TestEigsBytes:
    """`eigs` output, byte for byte, against the per-character oracle of tests/support.py."""

    F = "inverse-power:0.7"

    def expected(self, sizes, metric):
        table = eigen_table(build_kernel(GridDims(sizes), Metric(metric), InversePower(0.7)))
        summary = json.dumps(eigs_summary_oracle(table, metric, self.F), indent=2) + "\n"
        return eigs_csv_oracle(table), summary

    @pytest.mark.parametrize("sizes", EIGS_GRIDS)
    @pytest.mark.parametrize("metric", [m.value for m in Metric])
    def test_stdout(self, capsys, sizes, metric):
        argv = ("eigs", "--dims", ",".join(map(str, sizes)), "--metric", metric, "--f", self.F)
        if sizes == (1,):
            # no non-trivial character: refused before any output
            assert run(capsys, *argv) == (
                EXIT_SPEC, "", "error: need at least two sites for a non-trivial character\n"
            )
            return
        csv_text, summary = self.expected(sizes, metric)
        assert run(capsys, *argv) == (EXIT_OK, csv_text, summary)

    @pytest.mark.parametrize("sizes", EIGS_GRIDS)
    @pytest.mark.parametrize("metric", [m.value for m in Metric])
    def test_out_file_and_summary(self, capsys, tmp_path, sizes, metric):
        out = tmp_path / "e.csv"
        argv = ("eigs", "--dims", ",".join(map(str, sizes)), "--metric", metric, "--f", self.F,
                "--out", str(out))
        if sizes == (1,):
            assert run(capsys, *argv)[0] == EXIT_SPEC
            assert list(tmp_path.iterdir()) == []
            return
        csv_text, summary = self.expected(sizes, metric)
        assert run(capsys, *argv) == (EXIT_OK, summary, "")
        assert out.read_bytes() == csv_text.encode("utf-8")
        assert (tmp_path / "e.summary.json").read_bytes() == summary.encode("utf-8")

    def test_never_expands_the_full_table(self, capsys, tmp_path, monkeypatch):
        csv_text, summary = self.expected((4, 2, 6), "lee")

        def refuse(*args):
            raise AssertionError("eigs expanded the full eigenvalue table")

        monkeypatch.setattr(spectrum, "expand_block", refuse)
        out = tmp_path / "e.csv"
        argv = ("eigs", "--dims", "4,2,6", "--metric", "lee", "--f", self.F, "--out", str(out))
        assert run(capsys, *argv) == (EXIT_OK, summary, "")
        assert out.read_bytes() == csv_text.encode("utf-8")
