"""Command-line driver checks: CSV schemas, determinism, config precedence."""

import difflib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavmotion import cascade, cli, spectra
from cavmotion.cascade import SELECTIONS, steady_state
from cavmotion.fock import DEFAULT_HARD_CAP
from cavmotion.svgplot import render_plot

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleCavityCsv:
    def test_default_sweep_row_count_and_header(self, capsys):
        code, out, _ = run_cli(["single-cavity", "sweep"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,prob_density,lin_entropy,efficiency"
        assert len(lines) == 162

    def test_vacuum_field_zero_efficiency(self, capsys):
        code, out, _ = run_cli(["single-cavity", "sweep", "--zeta", "0"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(abs(float(r[3])) < 1e-12 for r in rows)

    def test_peaks_ordered_across_amplitudes(self, capsys):
        peaks = []
        for zeta in ("0.1", "0.4", "0.8"):
            _, out, _ = run_cli(["single-cavity", "sweep", "--zeta", zeta], capsys)
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            peaks.append(max(float(r[3]) for r in rows))
        assert peaks[0] < peaks[1] < peaks[2]

    def test_point_subcommand(self, capsys):
        code, out, _ = run_cli(["single-cavity", "point", "--x", "0.5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.5

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(["single-cavity", "point", "--x", "0.5"], capsys)
        for cell in out.strip().split("\n")[1].split(","):
            mantissa = cell.split("e")[0]
            assert len(mantissa.split(".")[1]) >= 12

    def test_error_marker_column_for_unresolvable_points(self, capsys):
        code, out, _ = run_cli(
            ["single-cavity", "sweep", "--zeta", "0",
             "--x-min", "-40", "--x-max", "40", "--x-count", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,prob_density,lin_entropy,efficiency,error"
        cells = [line.split(",") for line in lines[1:]]
        assert cells[0][4] == "unresolvable"
        assert cells[2][4] == ""

    def test_determinism(self, capsys):
        _, first, _ = run_cli(["single-cavity", "sweep"], capsys)
        _, second, _ = run_cli(["single-cavity", "sweep"], capsys)
        assert first == second


class TestCascadedCsv:
    def test_decoupled_sweep_constant_four(self, capsys):
        code, out, _ = run_cli(
            ["cascaded", "sweep", "--chi", "0", "--Omega", "3", "--Gamma", "0.2",
             "--Delta1", "1.5", "--Delta2", "-0.7",
             "--drive-min", "0.5", "--drive-max", "5", "--drive-count", "9",
             "--drive-log", "false"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "drive,branch,intensity1,intensity2,e_degree,stable"
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[4]) == pytest.approx(4.0, abs=1e-10)
            assert cells[5] == "true"

    def test_empty_grid_header_only(self):
        merged = dict(cli.DEFAULTS)
        doc = cli.run_cascaded(merged, drive_values=[])
        assert doc == "drive,branch,intensity1,intensity2,e_degree,stable\n"

    def test_sweep_flags_jump_and_unstable_rows(self, capsys):
        code, out, _ = run_cli(
            ["cascaded", "sweep", "--drive-min", "3e6", "--drive-max", "3e7",
             "--drive-count", "25"], capsys)
        assert code == 0
        lines = out.strip().split("\n")[1:]
        branches = [line.split(",")[1] for line in lines]
        assert any(b.startswith("jump:") for b in branches)
        stables = [line.split(",")[5] for line in lines]
        assert "false" in stables
        nan_rows = [line for line in lines if line.split(",")[4] == "nan"]
        assert nan_rows

    def test_steady_subcommand_schema(self, capsys):
        code, out, _ = run_cli(["cascaded", "steady", "--drive", "1e5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("drive,branch1,branch2,intensity1")
        assert len(lines) == 2

    def test_steady_at_vanishing_coupling(self, capsys):
        # the cubic's normalized coefficients overflow here; the cavities
        # are linear to working precision: intensity = 4 drive^2
        code, out, err = run_cli(["cascaded", "steady", "--chi", "1e-30",
                                  "--Delta1", "0", "--Delta2", "0"], capsys)
        assert code == 0, err
        cells = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        assert float(cells["intensity1"]) == pytest.approx(4e12, rel=1e-12)
        assert cells["stable"] == "true"

    def test_spectrum_subcommand(self, capsys):
        code, out, _ = run_cli(
            ["cascaded", "spectrum", "--drive", "1e5",
             "--omega-min", "500", "--omega-max", "2000", "--omega-count", "7"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "omega,s_qplus,s_pminus,commutator_im,e_degree,variance_product"
        assert len(lines) == 8

    def test_spectrum_on_unstable_point_fails_numerically(self, capsys):
        # middle of the unstable post-jump region
        code, _, err = run_cli(
            ["cascaded", "spectrum", "--drive", "3e7", "--selection", "highest"], capsys)
        assert code == 2
        assert "stable" in err

    def test_spectrum_grid_crossing_a_failure_names_first_omega(self, capsys):
        # the commutator spectrum falls like Gamma/w^2 and crosses the floor
        # inside one block of this grid; several later omegas fail too
        omegas = np.geomspace(1e2, 1e20, 400)
        params = cli._phys_params(cli.DEFAULTS)
        drift = spectra.build_drift(params, steady_state(params, cli.DEFAULTS["drive"]))
        noise = spectra.build_noise(params)
        for omega in omegas:
            try:
                spectra.epr_spectra(drift, noise, omega)
            except ArithmeticError as exc:
                first = str(exc)
                break
        code, out, err = run_cli(
            ["cascaded", "spectrum", "--omega-min", "1e2", "--omega-max", "1e20",
             "--omega-count", "400"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"numerical failure: {first}\n"

    def test_overflowing_drive_flags_its_row_only(self, capsys):
        # the drive power of 1e200 overflows; the other rows are finite
        argv = ["cascaded", "sweep", "--drive-min", "1e5", "--drive-max", "1e200",
                "--drive-count", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 5
        assert rows[-1].split(",")[-2:] == ["nan", "false"]
        merged = dict(cli.DEFAULTS, drive_min=1e5, drive_max=1e200, drive_count=5)
        drives = cli._grid(merged, "drive")
        alone = cli.run_cascaded(merged, drive_values=drives[:4])
        assert alone.strip().split("\n")[1:] == rows[:4]
        sweep = spectra.amplitude_sweep(cli._phys_params(merged), drives, 1000.0)
        assert (sweep.stable[-1], sweep.error[-1]) == (False, "overflow")
        assert np.isnan(sweep.e_degree[-1])

    def test_non_positive_variance_flags_its_sweep_row(self, capsys):
        # at drive 1e151 the spectral forms lose everything to cancellation
        # and s_qplus comes out negative; the row keeps its stable verdict
        argv = ["cascaded", "sweep", "--drive-min", "1e5", "--drive-max", "1e151",
                "--drive-count", "4"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert out.strip().split("\n")[-1].split(",")[-2:] == ["nan", "true"]
        merged = dict(cli.DEFAULTS, drive_min=1e5, drive_max=1e151, drive_count=4)
        sweep = spectra.amplitude_sweep(cli._phys_params(merged), cli._grid(merged, "drive"),
                                        1000.0)
        assert sweep.stable[-1] and np.isnan(sweep.e_degree[-1])
        assert sweep.error[-1].startswith("non-positive EPR variance (s_qplus -")
        assert sweep.error[-1].endswith(") at omega=1000.0")

    def test_spectrum_with_a_non_positive_variance_fails_numerically(self, capsys):
        # omega = 1000 alone: at lower frequencies the forms fail first, as
        # dominated by rounding
        code, out, err = run_cli(
            ["cascaded", "spectrum", "--drive", "1e151", "--omega-min", "1000",
             "--omega-count", "1"], capsys)
        assert code == cli.NUMERICAL_ERROR
        assert out == ""
        assert err.startswith("numerical failure: non-positive EPR variance")
        assert err.endswith(" at omega=1000.0\n")

    def test_spectrum_dominated_by_rounding_fails_numerically(self, capsys):
        # at drive 1e151 the row solves pass their residual guard, but the
        # forms are off by factors from omega = 100 on
        code, out, err = run_cli(["cascaded", "spectrum", "--drive", "1e151"], capsys)
        assert code == cli.NUMERICAL_ERROR
        assert out == ""
        assert err.startswith("numerical failure: EPR forms dominated by rounding")
        assert err.endswith(" at omega=100.0\n")

    @pytest.mark.parametrize("drive", ["1e75", "1e120", "1e150"])
    def test_huge_drive_meets_its_equation_or_fails(self, drive, capsys):
        code, out, err = run_cli(["cascaded", "steady", "--drive", drive], capsys)
        if code == cli.NUMERICAL_ERROR:
            return
        assert code == 0, err
        header, row = (line.split(",") for line in out.strip().split("\n"))
        gamma = cli.DEFAULTS["gamma"]
        assert float(row[header.index("residual")]) < 1e-9 * math.sqrt(gamma) * float(drive)

    def test_determinism(self, capsys):
        argv = ["cascaded", "sweep", "--drive-min", "1e5", "--drive-max", "1e7",
                "--drive-count", "31"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestWorkBounds:
    """Batched kernels: a bounded number of calls per block of points."""

    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"solve": 0, "solve_shapes": set(), "inv": 0, "eigvals": 0, "eigvals_full": 0,
                 "steady_state": 0, "intensity_roots": 0, "branch_label": 0,
                 "build_drift": 0, "drift_stack": 0}
        solve, inv, eigvals = np.linalg.solve, np.linalg.inv, np.linalg.eigvals
        build_drift = spectra.build_drift

        def counted_solve(a, b):
            tally["solve"] += 1
            tally["solve_shapes"].add(np.shape(a)[-2:])
            return solve(a, b)

        def counted_inv(a):
            tally["inv"] += 1
            return inv(a)

        def counted_eigvals(matrices):
            tally["eigvals"] += 1
            # a complex or 8x8 stack is the full drift, not its two real blocks
            matrices = np.asarray(matrices)
            tally["eigvals_full"] += np.iscomplexobj(matrices) or matrices.shape[-1] == 8
            return eigvals(matrices)

        def counted_drift(params, steady):
            tally["drift_stack" if np.ndim(steady.zeta1) else "build_drift"] += 1
            return build_drift(params, steady)

        def counter(name, fn):
            def counted(*args, **kwargs):
                tally[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        monkeypatch.setattr(spectra, "build_drift", counted_drift)
        # every module that binds a per-point function by name
        for name in ("steady_state", "intensity_roots", "branch_label"):
            fn = counter(name, getattr(cascade, name))
            for module in (cascade, spectra, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fn)
        return tally

    @staticmethod
    def assert_row_solves(counts, blocks):
        # no 8x8 inverse: at most two 4x4 stage solves per sign of w
        assert counts["inv"] == 0
        assert counts["solve"] <= 4 * blocks
        assert counts["solve_shapes"] <= {(4, 4)}

    @pytest.mark.parametrize("count", [1, 64, spectra.GRID_BLOCK, 301])
    def test_spectrum_two_solves_per_block(self, count, counts, capsys):
        code, out, _ = run_cli(["cascaded", "spectrum", "--omega-count", str(count)], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == count + 1
        self.assert_row_solves(counts, math.ceil(count / spectra.GRID_BLOCK))
        assert counts["eigvals"] == 1
        assert counts["eigvals_full"] == 0

    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_steady_one_real_eigvals(self, selection, counts, capsys):
        code, _, _ = run_cli(["cascaded", "steady", "--selection", selection], capsys)
        assert code == 0
        self.assert_row_solves(counts, 0)
        assert counts["eigvals"] == 1
        assert counts["eigvals_full"] == 0

    @pytest.mark.parametrize("count", [1, 64, spectra.GRID_BLOCK, 301])
    def test_sweep_one_eigvals_two_solves_per_block(self, count, counts, capsys):
        code, out, _ = run_cli(["cascaded", "sweep", "--drive-count", str(count)], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == count + 1
        blocks = math.ceil(count / spectra.GRID_BLOCK)
        self.assert_row_solves(counts, blocks)
        assert counts["eigvals"] <= blocks
        assert counts["eigvals_full"] == 0
        # one root solve for the whole drive grid, one drift stack per block
        for name in ("steady_state", "intensity_roots", "branch_label", "build_drift"):
            assert counts[name] == 0, name
        assert counts["drift_stack"] <= blocks


class TestConfigPrecedence:
    def test_flag_overrides_config_overrides_default(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("zeta = 0.3   # amplitude\nx_count = 11\n")
        # default
        _, out, _ = run_cli(["single-cavity", "sweep"], capsys)
        assert len(out.strip().split("\n")) == 162
        # config file overrides default
        _, out, _ = run_cli(["single-cavity", "sweep", "--config", str(config)], capsys)
        assert len(out.strip().split("\n")) == 12
        # flag overrides config file
        _, out, _ = run_cli(["single-cavity", "sweep", "--config", str(config),
                             "--x-count", "5"], capsys)
        assert len(out.strip().split("\n")) == 6

    def test_config_values_propagate(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("zeta = 0\n")
        _, out, _ = run_cli(["single-cavity", "point", "--x", "0",
                             "--config", str(config)], capsys)
        dens = float(out.strip().split("\n")[1].split(",")[1])
        assert dens == pytest.approx(math.pi**-0.5, rel=1e-12)

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("zeta_typo = 1\n")
        code, _, err = run_cli(["single-cavity", "sweep", "--config", str(config)], capsys)
        assert code == 1
        assert "unknown parameter" in err

    def test_malformed_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("zeta 0.4\n")
        code, _, err = run_cli(["single-cavity", "sweep", "--config", str(config)], capsys)
        assert code == 1

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(["single-cavity", "sweep", "--x-count", "0"], capsys)
        assert code == 1
        assert "count" in err
        code, _, _ = run_cli(["single-cavity", "sweep", "--x-min", "2", "--x-max", "-2"], capsys)
        assert code == 1

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1

    def test_nonnumeric_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["single-cavity", "sweep", "--zeta", "abc"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["cascaded", "sweep", "--omega-eval", "nan"],
        ["cascaded", "sweep", "--drive-max", "inf"],
        ["single-cavity", "point", "--x", "nan"],
        ["single-cavity", "point", "--x", "0", "--x-min", "nan"],
        ["cascaded", "steady", "--selection", "bogus"],
        ["single-cavity", "sweep", "--tail-epsilon=-inf"],
    ])
    def test_invalid_value_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "must be" in err

    @pytest.mark.parametrize("cap", ["0", "513", "1000"])
    def test_hard_cap_outside_the_order_range_is_usage_error(self, cap, capsys):
        code, out, err = run_cli(["single-cavity", "point", "--x", "0", "--zeta", "30",
                                  "--hard-cap", cap], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: hard_cap must be in [1, {DEFAULT_HARD_CAP}], got {cap}\n"

    def test_hard_cap_from_config_is_checked(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("hard_cap = 1000\n")
        code, out, err = run_cli(["single-cavity", "point", "--x", "0", "--zeta", "30",
                                  "--config", str(config)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: hard_cap must be in [1, {DEFAULT_HARD_CAP}], got 1000\n"

    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("drive_min = nan\n")
        code, _, err = run_cli(["cascaded", "sweep", "--config", str(config)], capsys)
        assert code == 1
        assert "drive_min must be finite" in err

    @pytest.mark.parametrize("argv,column,want", [
        (["single-cavity", "point", "--x", "-1e-05"], 0, -1e-05),
        (["single-cavity", "sweep", "--x-min", "-1e-1", "--x-count", "1"], 0, -0.1),
        (["single-cavity", "point", "--x", "0", "--zeta", "-2.5E-1"], 0, 0.0),
        (["cascaded", "steady", "--drive", "1e5", "--Delta1", "-1e4"], 0, 1e5),
    ])
    def test_negative_scientific_values_are_values(self, argv, column, want, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert float(out.strip().split("\n")[1].split(",")[column]) == want


GOLDEN_RUNS = [
    (["single-cavity", "sweep"], "single_cavity_sweep.csv"),
    (["single-cavity", "point", "--x", "0.5"], "single_cavity_point.csv"),
    (["cascaded", "steady"], "cascaded_steady.csv"),
    (["cascaded", "sweep"], "cascaded_sweep.csv"),
    (["cascaded", "spectrum"], "cascaded_spectrum.csv"),
]


def assert_matches_golden(argv, name, tmp_path, capsys):
    out_path = tmp_path / name
    code, _, err = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 0, err
    got, want = out_path.read_bytes(), (GOLDEN / name).read_bytes()
    if got != want:
        diff = difflib.unified_diff(want.decode().splitlines(), got.decode().splitlines(),
                                    "golden/" + name, "now", lineterm="", n=0)
        pytest.fail(f"{name} differs from its golden file:\n" + "\n".join(diff))


@pytest.mark.parametrize("argv,name", GOLDEN_RUNS)
def test_default_output_matches_golden(argv, name, tmp_path, capsys):
    assert_matches_golden(argv, name, tmp_path, capsys)


@pytest.mark.parametrize("argv,stem", [
    (["single-cavity", "sweep"], "single_cavity_sweep"),
    (["cascaded", "sweep"], "cascaded_sweep"),
    (["cascaded", "spectrum"], "cascaded_spectrum"),
])
def test_default_plot_matches_golden_svg(argv, stem, tmp_path, capsys):
    code, _, err = run_cli(argv + ["--out", str(tmp_path / f"{stem}.csv"), "--plot"], capsys)
    assert code == 0, err
    assert (tmp_path / f"{stem}.svg").read_bytes() == (GOLDEN / f"{stem}.svg").read_bytes()


def test_one_parser_serves_alternating_calls(tmp_path, capsys):
    # the parser is built once per process; a usage error between requests
    # of other subcommands must leave it as it was
    assert cli.build_parser() is cli.build_parser()
    for argv, name in GOLDEN_RUNS + GOLDEN_RUNS[::-1]:
        code, _, err = run_cli(["cascaded", "steady", "--selection", "bogus"], capsys)
        assert code == 1 and "selection" in err
        assert_matches_golden(argv, name, tmp_path, capsys)


class TestPlot:
    def make_csv(self, tmp_path, capsys, argv, name):
        _, out, _ = run_cli(argv, capsys)
        path = tmp_path / name
        path.write_text(out)
        return path

    def test_single_cavity_plot_has_one_polyline(self, tmp_path, capsys):
        path = self.make_csv(tmp_path, capsys, ["single-cavity", "sweep"], "profile.csv")
        code, svg, _ = run_cli(["plot", str(path), "--x-column", "x",
                                "--y-columns", "efficiency"], capsys)
        assert code == 0
        assert svg.count("<polyline") == 1
        assert "<svg" in svg and "</svg>" in svg

    def test_two_row_csv_single_segment(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("x,y\n0.0,1.0\n1.0,3.0\n")
        code, svg, _ = run_cli(["plot", str(path), "--x-column", "x",
                                "--y-columns", "y"], capsys)
        assert code == 0
        assert svg.count("<polyline") == 1
        points = svg.split('points="')[1].split('"')[0].split(" ")
        assert len(points) == 2

    def test_cascaded_plot_marks_discontinuity(self, tmp_path, capsys):
        path = self.make_csv(
            tmp_path, capsys,
            ["cascaded", "sweep", "--drive-min", "3e6", "--drive-max", "3e7",
             "--drive-count", "25"], "sweep.csv")
        code, svg, _ = run_cli(["plot", str(path), "--x-column", "drive",
                                "--y-columns", "e_degree"], capsys)
        assert code == 0
        assert "stroke-dasharray" in svg

    def test_missing_column_named_error(self, tmp_path, capsys):
        path = self.make_csv(tmp_path, capsys, ["single-cavity", "sweep"], "profile.csv")
        code, _, err = run_cli(["plot", str(path), "--x-column", "x",
                                "--y-columns", "nope"], capsys)
        assert code == 1
        assert "nope" in err

    def test_plot_determinism(self, tmp_path, capsys):
        path = self.make_csv(tmp_path, capsys, ["single-cavity", "sweep"], "profile.csv")
        argv = ["plot", str(path), "--x-column", "x", "--y-columns", "efficiency"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_plot_flag_writes_svg_next_to_out(self, tmp_path, capsys):
        out_path = tmp_path / "profile.csv"
        code, _, _ = run_cli(["single-cavity", "sweep", "--out", str(out_path),
                              "--plot"], capsys)
        assert code == 0
        assert out_path.exists()
        assert (tmp_path / "profile.svg").exists()

    def test_plot_flag_keeps_dotted_directory(self, tmp_path, monkeypatch, capsys):
        # the SVG path drops the extension of --out, not a dot in its directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.d").mkdir()
        code, _, _ = run_cli(["single-cavity", "sweep", "--x-count", "5",
                              "--out", "out.d/profile", "--plot"], capsys)
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "out.d").iterdir()) == ["profile", "profile.svg"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.d"]

    def test_plot_flag_without_out_is_usage_error(self, capsys):
        # refused before any computation: nothing reaches stdout
        for argv in (["single-cavity", "sweep", "--plot"], ["cascaded", "sweep", "--plot"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 1
            assert out == ""
            assert "--out" in err

    def test_steady_has_no_plot_flag(self, tmp_path, capsys):
        # a working point has no curve; --plot there is a usage error
        code, out, err = run_cli(["cascaded", "steady", "--out", str(tmp_path / "steady.csv"),
                                  "--plot"], capsys)
        assert (code, out) == (1, "")
        assert err.endswith("error: unrecognized arguments: --plot\n")
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_consumes_emitted_numbers(self, tmp_path, capsys):
        # every numeric cell written by run_* parses back exactly
        path = self.make_csv(tmp_path, capsys, ["single-cavity", "sweep"], "f.csv")
        text = path.read_text()
        for line in text.strip().split("\n")[1:]:
            for cell in line.split(","):
                float(cell)  # must not raise
        svg = render_plot(text, "x", ["prob_density", "lin_entropy", "efficiency"])
        assert svg.count("<polyline") == 3


def test_default_subcommands_load_no_scipy(tmp_path):
    # numpy is the one runtime dependency: scipy serves the tests alone
    script = """
import contextlib, io, sys
from cavmotion import cli
for argv in (["single-cavity", "sweep", "--out", "profile.csv"],
             ["single-cavity", "point", "--x", "0.5"], ["cascaded", "steady"],
             ["cascaded", "sweep"], ["cascaded", "spectrum"],
             ["plot", "profile.csv", "--x-column", "x", "--y-columns", "efficiency"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(",".join(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"
