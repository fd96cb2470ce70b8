import csv
import io
import json
from importlib import resources

import jsonschema
import pytest

from toric_lab.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_NOT_CERTIFIED,
    EXIT_OK,
    EXIT_SPEC,
    InstanceSpec,
    SpecError,
    main,
    parse_dims,
    parse_energy,
)
from toric_lab.energy import ExponentialAtom, InversePower, Tabulated


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


class TestInstanceSpec:
    def test_round_trip(self):
        spec = InstanceSpec(
            dims=(4, 4), metric="lee", f="inverse-power:1", p=8,
            tie_tol=1e-9, budget=10**10, seed=7, fmt="csv",
        )
        assert InstanceSpec.from_text(spec.to_text()) == spec

    def test_round_trip_with_omitted_optionals(self):
        spec = InstanceSpec(dims=(8,), metric="euclid-sq", f="exp:1.05")
        text = spec.to_text()
        assert "p =" not in text
        assert "tie_tol" not in text
        assert InstanceSpec.from_text(text) == spec

    def test_comments_and_blank_lines(self):
        text = "# instance\ndims = 4,4\n\nmetric = lee  # wrap metric\nf = inverse-power:1\n"
        spec = InstanceSpec.from_text(text)
        assert spec.dims == (4, 4)
        assert spec.metric == "lee"

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError):
            InstanceSpec.from_text("dims = 4,4\ncolour = blue\n")
        with pytest.raises(SpecError):
            InstanceSpec.from_text("metric = lee\n")  # dims missing
        with pytest.raises(SpecError):
            InstanceSpec.from_text("dims = 4,4\nthreads = 2\n")
        with pytest.raises(SpecError):
            InstanceSpec.from_text("dims = 4,4\nformat = bogus\n")


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

    def test_odd_dims_exit_2(self, capsys):
        code, _, err = run(capsys, "certify", "--dims", "3,4", "--f", "inverse-power:1")
        assert code == EXIT_SPEC
        assert "even" in err

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

    def test_oversized_configuration_exit_3(self, capsys, tmp_path):
        config = tmp_path / "big.txt"
        config.write_text("".join(f"{i // 64},{i % 64}\n" for i in range(2049)), encoding="utf-8")
        code, _, err = run(
            capsys, "energy", "--dims", "64,64", "--f", "inverse-power:1",
            "--config", str(config),
        )
        assert code == EXIT_BUDGET
        assert "2049 x 2049" in err

    def test_missing_file_exit_4(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "energy", "--dims", "4,4", "--f", "inverse-power:1",
            "--config", str(tmp_path / "nope.txt"),
        )
        assert code == EXIT_IO


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

    def test_bad_base_exit_2(self, capsys):
        code, _, _ = run(capsys, "factor-curve", "--n", "8", "--a", "0.9")
        assert code == EXIT_SPEC


class TestSpecFileFlow:
    def test_spec_file_with_flag_override(self, capsys, tmp_path):
        spec = InstanceSpec(dims=(4, 4), metric="lee", f="inverse-power:1", p=8)
        path = tmp_path / "instance.spec"
        path.write_text(spec.to_text(), encoding="utf-8")
        code, stdout, _ = run(capsys, "certify", "--spec", str(path))
        assert code == EXIT_OK
        # overriding the metric on the command line wins over the file
        code2, stdout2, _ = run(
            capsys, "certify", "--spec", str(path), "--metric", "chebyshev",
        )
        assert json.loads(stdout2)["metric"] == "chebyshev"

    def test_float_serialisation_round_trips(self):
        spec = InstanceSpec(dims=(4,), tie_tol=0.1 + 0.2)
        parsed = InstanceSpec.from_text(spec.to_text())
        assert parsed.tie_tol == spec.tie_tol

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("TORIC_LAB_BUDGET", "1000")
        code, _, err = run(
            capsys, "search", "--dims", "6,6", "--f", "inverse-power:1", "--p", "18",
        )
        assert code == EXIT_BUDGET
        # an explicit flag overrides the environment
        monkeypatch.setenv("TORIC_LAB_BUDGET", "1000")
        code2, _, _ = run(
            capsys, "search", "--dims", "4,4", "--f", "inverse-power:1", "--p", "2",
            "--budget", "100000000",
        )
        assert code2 == EXIT_OK

    def test_unwritable_out_exit_4(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "certify", "--dims", "4,4", "--f", "inverse-power:1",
            "--out", str(tmp_path / "missing-dir" / "cert.json"),
        )
        assert code == EXIT_IO

    def test_no_command_exit_2(self, capsys):
        assert main([]) == EXIT_SPEC

    def test_csv_uses_17_significant_digits(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "--dims-list", "4,4", "--f", "inverse-power:1",
        )
        assert code == EXIT_OK
        row = list(csv.reader(io.StringIO(stdout)))[1]
        assert float(row[4]) == 25.999999999999996
