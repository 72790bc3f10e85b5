"""Command-line driver checks: CSV schemas, determinism, config precedence."""

import contextlib
import difflib
import io
import math
import os
import signal
import subprocess
import sys
import warnings
import xml.dom.minidom
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from block_oracle import build_drift, cancelling_noise, epr_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmotion import _digits, cascade, cli, conditional, spectra
from cavmotion.cascade import SELECTIONS, steady_grid
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

    def test_outcome_whose_square_overflows_is_unresolvable(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["single-cavity", "point", "--x", "1e300"], capsys)
        assert code == 0, err
        assert out.strip().split("\n")[1] == "1.000000000000e+300,nan,nan,nan,unresolvable"

    def test_largest_float_outcome_is_unresolvable(self, capsys):
        # sqrt(2) x overflowed in psi_1, whose value is 0 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["single-cavity", "point", "--kappa", "0",
                                      "--x", "1.7976931348623157e308"], capsys)
        assert code == 0, err
        assert out.strip().split("\n")[1] == "1.797693134862e+308,nan,nan,nan,unresolvable"

    @pytest.mark.parametrize("flags", [
        ["--x-min", "-1.7976931348623157e308", "--x-max", "1.7976931348623157e308"],
        ["--x-max", "1.7976931348623157e308"],
    ], ids=["span", "end"])
    def test_grid_to_the_float_range_ends(self, flags, capsys):
        # the span of the first grid overflows, and the last step of the
        # second rounds past the float range; every point stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["single-cavity", "sweep", "--zeta", "0", "--x-count", "4",
                                      *flags], capsys)
        assert code == 0, err
        x = np.array([float(line.split(",")[0]) for line in out.strip().split("\n")[1:]])
        assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)
        assert x[-1] == 1.797693134862e308  # 12 significant digits

    def test_purity_clipped_on_the_window_rows(self, capsys):
        # this profile takes the Fock-window moments (a window of 2 states
        # for 5 labels), whose purities round above 1 on three rows, as the
        # label factor's did: lin_entropy -2.2e-16 and efficiency -4.1e-17
        argv = ["single-cavity", "sweep", "--time", "-8.367324321295437e-06",
                "--tail-epsilon", "0.0017635615576426019", "--x-max", "0.07819246128027026",
                "--x-count", "9"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        for line in out.strip().split("\n")[1:]:
            _, prob, entropy, efficiency = (float(cell) for cell in line.split(","))
            assert prob > 0.0 and 0.0 <= entropy <= 1.0 and efficiency >= 0.0

    @pytest.mark.parametrize("flags", [["--time", "-1e308"],
                                       ["--x-min", "1e-154", "--kappa", "1e154"],
                                       ["--zeta", "0", "--kappa", "1.7976931348623157e308"]],
                             ids=["time", "kappa", "labels"])
    def test_overflowing_kerr_phase_marks_every_row(self, flags, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["single-cavity", "sweep", "--x-count", "5", *flags],
                                     capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 5
        assert all(row[1:] == ["nan", "nan", "nan", "unresolvable"] for row in rows)
        merged = dict(cli.DEFAULTS, **{flag[2:].replace("-", "_"): float(value)
                                       for flag, value in zip(flags[::2], flags[1::2])})
        profile = conditional.efficiency_profile(merged["zeta"], merged["kappa"],
                                                 merged["time"], x_grid=[merged["x_min"]])
        assert profile.status[0] == conditional.NONFINITE_STATE

    def test_overflowing_mean_photon_number_fails_numerically(self, capsys):
        code, out, err = run_cli(["single-cavity", "point", "--x", "0", "--zeta", "1e200"],
                                 capsys)
        assert code == 2 and out == ""
        assert "mean photon number |zeta|^2 overflows" in err

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
        doc = cli.format_csv(*cli.run_cascaded(merged, drive_values=[]))
        assert doc == "drive,branch,intensity1,intensity2,e_degree,stable\n"

    def test_branch_cell_of_every_code_pair(self, monkeypatch):
        # each cavity's branch is named in its own place, with and without a jump
        jumped, first, second = (axis.ravel() for axis in np.indices((2, 4, 4)))
        ones = np.ones(jumped.size)
        sweep = spectra.SweepPoint(
            drive=ones, branch1=first, branch2=second, intensity1=ones, intensity2=ones,
            stable=ones.astype(bool), e_degree=ones, jumped=jumped.astype(bool),
            status=np.full(jumped.size, spectra.OK))
        monkeypatch.setattr(spectra, "amplitude_sweep", lambda *args: sweep)
        doc = cli.format_csv(*cli.run_cascaded(dict(cli.DEFAULTS), drive_values=ones))
        names = cascade.BRANCH_NAMES
        assert [line.split(",")[1] for line in doc.splitlines()[1:]] == [
            f"{'jump:' if j else ''}{names[a]}/{names[b]}"
            for j, a, b in zip(jumped, first, second)]

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

    def test_overflowing_pulling_coefficients_fail_numerically(self, capsys):
        code, out, err = run_cli(["cascaded", "steady", "--chi", "1e160"], capsys)
        assert code == 2 and out == ""
        assert "intensity-pulling coefficients overflow" in err

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
        # the commutator spectrum falls like Gamma/w^2 and drops below the
        # smallest normal float near w = 2.3e152, inside the first block of
        # this grid; every later omega fails too
        omegas = np.geomspace(1e2, 1e200, 400)
        params = cli._phys_params(cli.DEFAULTS)
        branch = steady_grid(params, [cli.DEFAULTS["drive"]])[0]
        for k, omega in enumerate(omegas):
            try:
                spectra.epr_grid(params, branch, omega)
            except ArithmeticError as exc:
                first = str(exc)
                break
        assert 1e152 < omegas[k] < 1e153 and k < spectra.GRID_BLOCK
        assert first.startswith("degenerate commutator spectrum")
        code, out, err = run_cli(
            ["cascaded", "spectrum", "--omega-min", "1e2", "--omega-max", "1e200",
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
        alone = cli.format_csv(*cli.run_cascaded(merged, drive_values=drives[:4]))
        assert alone.strip().split("\n")[1:] == rows[:4]
        sweep = spectra.amplitude_sweep(cli._phys_params(merged), drives, 1000.0)
        assert (sweep.stable[-1], sweep.status[-1]) == (False, spectra.OVERFLOW)
        assert np.isnan(sweep.e_degree[-1])

    def test_overflowing_drive_has_no_stable_working_point(self, capsys):
        # the steady command reports the nan working point; the spectrum
        # command refuses it like any unstable one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["cascaded", "steady", "--drive", "1e200"], capsys)
            assert code == 0, err
            cells = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
            assert (cells["branch1"], cells["branch2"], cells["stable"]) == ("none", "none", "false")
            code, out, err = run_cli(["cascaded", "spectrum", "--drive", "1e200"], capsys)
        assert code == cli.NUMERICAL_ERROR
        assert out == ""
        assert err.startswith("numerical failure: no stable working point at drive 1e+200")
        assert "infs or NaNs" not in err

    def test_stable_verdict_at_tiny_cavity_damping(self, capsys):
        # at gamma 1e-20 the damping margin, -5.0e-21 at 60 digits, is far
        # below the rounding of an eigenvalue solve of the drift
        mpmath = pytest.importorskip("mpmath")
        code, out, err = run_cli(["cascaded", "steady", "--gamma", "1e-20", "--drive", "1e5"],
                                 capsys)
        assert code == 0, err
        cells = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        params = cli._phys_params(dict(cli.DEFAULTS, gamma=1e-20))
        drift = build_drift(params, steady_grid(params, [1e5])[0])
        with mpmath.workdps(60):
            growth = max(mpmath.re(e) for e in mpmath.eig(mpmath.matrix(drift.tolist()))[0])
        assert -1e-20 < growth < -1e-21
        assert cells["stable"] == "true"

    def test_undamped_uncoupled_atoms_are_not_stable(self, capsys):
        code, out, err = run_cli(["cascaded", "steady", "--Gamma", "0", "--chi", "0"], capsys)
        assert code == 0, err
        assert out.strip().split("\n")[1].endswith(",false")

    def test_rounding_dominated_forms_flag_their_sweep_row(self, monkeypatch, capsys):
        # at drive 1e151 the stage rows keep the forms accurate (LAPACK's rows
        # lost them to rounding): the row is finite and matches a 300-digit
        # inversion.  Input moments that cancel (`cancelling_noise`; at
        # chi = 0 both atoms' rows are equal) flag each row, which keeps its
        # stable verdict
        mpmath = pytest.importorskip("mpmath")
        argv = ["cascaded", "sweep", "--drive-min", "1e5", "--drive-max", "1e151",
                "--drive-count", "4"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        merged = dict(cli.DEFAULTS, drive_min=1e5, drive_max=1e151, drive_count=4)
        params, drives = cli._phys_params(merged), cli._grid(merged, "drive")
        sweep = spectra.amplitude_sweep(params, drives, 1000.0)
        assert sweep.stable[-1] and sweep.status[-1] == spectra.OK
        assert out.strip().split("\n")[-1].split(",")[-2:] == [
            cli.FLOAT_FORMAT % sweep.e_degree[-1], "true"]
        drift = build_drift(params, steady_grid(params, drives, "follow")[len(drives) - 1])
        with mpmath.workdps(300):
            s_q, s_p, comm = epr_reference(drift, spectra.build_noise(params), 1000.0, mpmath)
            want = s_q * s_p / (0.25 * abs(comm) ** 2)
        assert float(abs(sweep.e_degree[-1] - want) / want) < 1e-12

        decoupled = dict(merged, chi=0.0)
        noise = cancelling_noise(cli._phys_params(decoupled))
        monkeypatch.setattr(spectra, "build_noise", lambda params: noise)
        code, out, err = run_cli(argv + ["--chi", "0"], capsys)
        assert code == 0, err
        assert all(row.split(",")[-2:] == ["nan", "true"] for row in out.strip().split("\n")[1:])
        sweep = spectra.amplitude_sweep(cli._phys_params(decoupled), drives, 1000.0)
        assert np.all(sweep.status == spectra.ROUNDING)

    def test_spectrum_at_omega_eval_dominated_by_rounding_fails_numerically(self, monkeypatch,
                                                                           capsys):
        # at drive 1e151 the spectrum at omega_eval now comes out and matches
        # a 300-digit inversion; input moments that cancel fail it as rounding
        mpmath = pytest.importorskip("mpmath")
        argv = ["cascaded", "spectrum", "--drive", "1e151", "--omega-min", "1000",
                "--omega-count", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        cells = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        params = cli._phys_params(cli.DEFAULTS)
        branch = steady_grid(params, [1e151])[0]
        noise = spectra.build_noise(params)
        with mpmath.workdps(300):
            want = epr_reference(build_drift(params, branch), noise, 1000.0, mpmath)
        for name, ref in zip(("s_qplus", "s_pminus"), want[:2]):
            assert float(abs(float(cells[name]) - ref) / ref) < 1e-12
        assert float(abs(float(cells["commutator_im"]) - want[2].imag) / abs(want[2])) < 1e-12

        params = cli._phys_params(dict(cli.DEFAULTS, chi=0.0))
        noise = cancelling_noise(params)
        monkeypatch.setattr(spectra, "build_noise", lambda params: noise)
        with pytest.raises(ArithmeticError) as info:
            spectra.epr_grid(params, steady_grid(params, [1e151])[0], 1000.0)
        code, out, err = run_cli(argv + ["--chi", "0"], capsys)
        assert code == cli.NUMERICAL_ERROR
        assert out == ""
        assert err == f"numerical failure: {info.value}\n"
        assert str(info.value).startswith("EPR forms dominated by rounding (estimated relative ")

    def test_spectrum_dominated_by_rounding_fails_numerically(self, monkeypatch, capsys):
        # at drive 1e151 every frequency of the default grid comes out (with
        # LAPACK's rows the forms were off by factors from omega = 100 on);
        # input moments that cancel fail the grid at its first frequency
        code, out, err = run_cli(["cascaded", "spectrum", "--drive", "1e151"], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == cli.DEFAULTS["omega_count"]
        assert all(math.isfinite(float(row[4])) for row in rows)

        noise = cancelling_noise(cli._phys_params(dict(cli.DEFAULTS, chi=0.0)))
        monkeypatch.setattr(spectra, "build_noise", lambda params: noise)
        code, out, err = run_cli(["cascaded", "spectrum", "--drive", "1e151", "--chi", "0"],
                                 capsys)
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
        tally = {"linalg": 0, "root_grid": 0, "stage_blocks": 0, "drift_arrays": 0,
                 "row_solve": 0}
        stage_blocks, root_grid, row_solve = (spectra.stage_blocks, cascade.root_grid,
                                              spectra._row_solve)

        def counted(function):
            def call(*args, **kwargs):
                tally["linalg"] += 1
                return function(*args, **kwargs)
            return call

        def counted_blocks(params, steady):
            tally["stage_blocks"] += 1
            return stage_blocks(params, steady)

        def counted_roots(*args):
            tally["root_grid"] += 1
            return root_grid(*args)

        def counted_solves(*args):
            tally["row_solve"] += 1
            return row_solve(*args)

        def counted_alloc(make):
            # a complex (..., 8, 8) array would be a drift matrix or a stack of them
            def alloc(shape, dtype=float, *args, **kwargs):
                if np.ravel(shape).tolist()[-2:] == [8, 8] and np.dtype(dtype).kind == "c":
                    tally["drift_arrays"] += 1
                return make(shape, dtype, *args, **kwargs)
            return alloc

        for name in ("solve", "inv", "det", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        monkeypatch.setattr(spectra, "stage_blocks", counted_blocks)
        monkeypatch.setattr(cascade, "root_grid", counted_roots)
        monkeypatch.setattr(spectra, "_row_solve", counted_solves)
        for name in ("zeros", "empty"):
            monkeypatch.setattr(np, name, counted_alloc(getattr(np, name)))
        return tally

    @staticmethod
    def assert_no_lapack(counts):
        # no 8x8 drift and no LAPACK call: the stage rows come in closed form
        # and stability from the working point
        assert counts["drift_arrays"] == 0
        assert counts["linalg"] == 0

    # counts up to and across the first block boundary
    BLOCKED_COUNTS = [1, 64, 128, 301, spectra.GRID_BLOCK, spectra.GRID_BLOCK + 1]

    @pytest.mark.parametrize("count", BLOCKED_COUNTS)
    def test_spectrum_two_solves_per_block(self, count, counts, capsys):
        code, out, _ = run_cli(["cascaded", "spectrum", "--omega-count", str(count)], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == count + 1
        self.assert_no_lapack(counts)
        # one working point: its stage blocks are built once, and the kernel
        # solves GRID_BLOCK frequencies at a time
        assert counts["stage_blocks"] == 1
        assert counts["row_solve"] == math.ceil(count / spectra.GRID_BLOCK)

    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_steady_no_eigvals_no_drift(self, selection, counts, capsys):
        code, _, _ = run_cli(["cascaded", "steady", "--selection", selection], capsys)
        assert code == 0
        assert counts["root_grid"] == 2  # one per cavity
        self.assert_no_lapack(counts)
        assert counts["stage_blocks"] == 0

    @pytest.mark.parametrize("count", BLOCKED_COUNTS)
    def test_sweep_no_eigvals_two_solves_per_block(self, count, counts, capsys):
        code, out, _ = run_cli(["cascaded", "sweep", "--drive-count", str(count)], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == count + 1
        stable = sum(line.endswith(",true") for line in out.strip().split("\n")[1:])
        self.assert_no_lapack(counts)
        # one root solve per cavity for the whole drive grid; one stage-block
        # build for all the stable drives, solved GRID_BLOCK at a time
        assert counts["root_grid"] == 2
        assert stable > 0
        assert counts["stage_blocks"] == 1
        assert counts["row_solve"] == math.ceil(stable / spectra.GRID_BLOCK)


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

    def test_comment_and_blank_lines_give_the_flags_csv(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# a short sweep\n\ndrive_count = 7   # drives\n   \nchi = 0.5\n")
        code, from_config, _ = run_cli(["cascaded", "sweep", "--config", str(config)], capsys)
        _, from_flags, _ = run_cli(["cascaded", "sweep", "--drive-count", "7", "--chi", "0.5"],
                                   capsys)
        assert code == 0
        assert from_config == from_flags

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(["cascaded", "sweep", "--config", str(tmp_path / "no.cfg")],
                                 capsys)
        assert (code, out) == (1, "")
        assert "cannot read config file" in err

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

    @pytest.mark.parametrize("count", ["1", "2"])
    @pytest.mark.parametrize("argv, message", [
        (["cascaded", "spectrum", "--omega-min", "-5", "--omega-count"],
         "log-spaced omega grid needs min > 0, got -5.0"),
        (["cascaded", "sweep", "--drive-min", "0", "--drive-count"],
         "log-spaced drive grid needs min > 0, got 0.0"),
    ], ids=["omega", "drive"])
    def test_log_grid_from_zero_or_below_is_usage_error(self, argv, message, count, monkeypatch,
                                                         capsys):
        # at every count, before any working point is solved; a linear grid may start there
        def computed(*args):
            pytest.fail("a working point was solved before the grid was checked")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "steady_grid", computed)
            patch.setattr(spectra, "amplitude_sweep", computed)
            code, out, err = run_cli(argv + [count], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        log_flag = "--omega-log" if argv[1] == "spectrum" else "--drive-log"
        code, out, err = run_cli(argv + [count, log_flag, "false"], capsys)
        assert (code, err) == (0, "")
        assert len(out.strip().split("\n")) == 1 + int(count)

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1

    def test_nonnumeric_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["single-cavity", "sweep", "--zeta", "abc"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["single-cavity", "sweep", "--x-count", "abc"], "--x-count must be an int, got 'abc'"),
        (["cascaded", "sweep", "--drive-log", "maybe"],
         "--drive-log must be a boolean, got 'maybe'"),
        (["single-cavity", "point", "--x", "0", "--zeta", "abc"],
         "--zeta must be a float, got 'abc'"),
    ])
    def test_bad_flag_value_names_the_flag(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("line, message", [
        ("x_count = abc", "config value for x_count is not an int: 'abc'"),
        ("drive_log = maybe", "config value for drive_log is not a boolean: 'maybe'"),
    ])
    def test_bad_config_value_names_the_config_key(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(["single-cavity", "sweep", "--config", str(cfg)], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["cascaded", "sweep", "--omega-eval", "nan"],
        ["cascaded", "sweep", "--drive-max", "inf"],
        ["single-cavity", "point", "--x", "nan"],
        ["single-cavity", "sweep", "--x-min", "nan"],
        ["cascaded", "steady", "--selection", "bogus"],
        ["single-cavity", "sweep", "--tail-epsilon=-inf"],
    ])
    def test_invalid_value_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "must be" in err

    @pytest.mark.parametrize("argv", [
        *(["single-cavity", "point", "--x", "0", flag, "1"]
          for flag in ("--x-min", "--x-max", "--x-count")),
        *(["cascaded", "steady", flag, "1"]
          for flag in ("--drive-min", "--drive-max", "--drive-count", "--drive-log", "--omega-min",
                       "--omega-max", "--omega-count", "--omega-log", "--omega-eval")),
        *(["cascaded", "spectrum", flag, "1"]
          for flag in ("--drive-min", "--drive-max", "--drive-count", "--drive-log", "--omega-eval")),
        *(["cascaded", "sweep", flag, "1"]
          for flag in ("--drive", "--omega-min", "--omega-max", "--omega-count", "--omega-log")),
        ["cascaded", "sweep", "--selection", "lowest"],
        ["cascaded", "sweep", "--omega", "1"],  # not a prefix of --omega-eval
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv, capsys):
        # a config file may still set any key; a flag is accepted only where it is read
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith("error: ") and argv[-2] in err.splitlines()[-1]

    def test_refused_flag_shows_the_subcommand_usage(self, capsys):
        code, out, err = run_cli(["cascaded", "steady", "--omega-count", "5"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage: cavmotion cascaded steady [-h] ")
        assert "--drive DRIVE" in err
        assert err.endswith("error: unrecognized arguments: --omega-count 5\n")

    def test_config_lines_the_subcommand_does_not_read_are_not_checked(self, tmp_path, capsys):
        # the omega grid is not read by a single-cavity point; its config line
        # needs only a known key and a value of its type
        argv = ["single-cavity", "point", "--x", "0"]
        _, want, _ = run_cli(argv, capsys)
        config = tmp_path / "run.cfg"
        config.write_text("omega_count = 0\nOmega = inf\nselection = bogus\n")
        code, out, err = run_cli(argv + ["--config", str(config)], capsys)
        assert (code, out, err) == (0, want, "")
        for line, message in (("omega_count = many", "is not an int"),
                              ("omega_typo = 0", "unknown parameter")):
            config.write_text(line + "\n")
            code, out, err = run_cli(argv + ["--config", str(config)], capsys)
            assert (code, out) == (1, "") and message in err

    @pytest.mark.parametrize("argv", [
        ["cascaded", "steady", "--gamma", "0"],
        ["cascaded", "sweep", "--Omega", "-1"],
        ["cascaded", "spectrum", "--chi", "-1"],
        ["cascaded", "spectrum", "--Gamma", "-1"],
        ["single-cavity", "sweep", "--kappa", "-1"],
        ["single-cavity", "sweep", "--tail-epsilon", "1"],
    ])
    def test_physical_parameter_out_of_range_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and " must be " in err

    def test_hard_cap_flag_is_unrecognized(self, capsys):
        # tail_epsilon is the one truncation setting
        code, out, err = run_cli(["single-cavity", "point", "--x", "0", "--hard-cap", "512"],
                                 capsys)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --hard-cap 512" in err

    def test_hard_cap_config_key_is_unknown(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("hard_cap = 512\n")
        code, out, err = run_cli(["single-cavity", "point", "--x", "0",
                                  "--config", str(config)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {config}:1: unknown parameter 'hard_cap'\n"

    @pytest.mark.parametrize("argv", [["single-cavity", "sweep", "--zeta", "30"],
                                      ["single-cavity", "point", "--x", "0", "--zeta", "45"]])
    def test_state_past_512_photons_is_a_numerical_failure(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.NUMERICAL_ERROR, "")
        assert err.startswith(f"numerical failure: |zeta| = {float(argv[-1])} needs more than "
                              "512 photons: its Poisson tail past 512 is 1.000e+00, ")
        assert err.count("\n") == 1

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


@pytest.mark.parametrize("argv,marks,names", [
    (["cascaded", "steady", "--chi", "1e200"], None, "intensity-pulling coefficients"),
    (["cascaded", "steady", "--Omega", "1e200"], "lower", None),
    (["cascaded", "steady", "--Gamma", "1e200"], "lower", None),
    (["cascaded", "steady", "--gamma", "1e200"], "none", None),
    (["single-cavity", "sweep", "--kappa", "1e160"], "unresolvable", None),
    (["single-cavity", "point", "--x", "0", "--zeta", "1e160"], None,
     "mean photon number |zeta|^2"),
    (["cascaded", "steady", "--chi", "0", "--drive", "1.7976931348623157e308", "--gamma", "2"],
     "none", None),
    (["cascaded", "steady", "--drive", "1e200", "--gamma", "1.7976931348623157e308"], "none",
     None),
], ids=["chi", "Omega", "Gamma", "gamma", "kappa", "zeta", "drive", "sqrt-gamma-drive"])
def test_squared_parameter_overflow(argv, marks, names, capsys):
    # a parameter whose square overflows either leaves its rows marked
    # (or, where the square only enters a negligible term, computed) or
    # fails naming the quantity; never Python's bare errno tuple or a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert "(34," not in err
    if names is None:
        assert code == 0, err
        assert out.strip().split("\n")[-1].split(",")[1 if argv[1] == "steady" else -1] == marks
    else:
        assert code == cli.NUMERICAL_ERROR and out == ""
        assert err.startswith(f"numerical failure: {names}") and "overflow" in err


@pytest.mark.parametrize("argv", [
    ["cascaded", "spectrum", "--Omega", "1e200"],
    ["cascaded", "spectrum", "--Gamma", "1e200"],
    ["cascaded", "sweep", "--Gamma", "1e200", "--drive-count", "5"],
], ids=["spectrum-Omega", "spectrum-Gamma", "sweep-Gamma"])
def test_overflowing_schur_determinant_is_not_singular(argv, monkeypatch, capsys):
    # the stages' Schur complements have entries near 1e200, so their
    # determinants overflow; the stages are far from singular (the working
    # points are stable), and a point fails, if at all, by the rules that
    # follow the row solve: at Omega 1e200 a commutator of exactly 0; at
    # Gamma 1e200 the commutator is 4e-200, a normal float, and every point
    # comes out in the decoupled limit e_degree = 4
    sweeps, amplitude_sweep = [], spectra.amplitude_sweep

    def recorded(*args):
        sweeps.append(amplitude_sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(spectra, "amplitude_sweep", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert "singular" not in err
    assert not any(np.any(sweep.status == spectra.SINGULAR) for sweep in sweeps)
    if argv[2] == "--Omega":
        assert (code, out) == (cli.NUMERICAL_ERROR, "")
        assert err.startswith("numerical failure: degenerate commutator spectrum |0j|")
        return
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.strip().split("\n")]
    e_degree = np.array([row[rows[0].index("e_degree")] for row in rows[1:]], dtype=float)
    assert e_degree.size == (5 if argv[1] == "sweep" else cli.DEFAULTS["omega_count"])
    assert np.all(np.abs(e_degree - 4.0) <= 1e-12)
    if argv[1] == "sweep":
        assert all(row[-1] == "true" for row in rows[1:])
        assert np.all(sweeps[0].status == spectra.OK)


def written(rows):
    """The text of each PAD-filled byte row of a writer."""
    return [row[row != _digits.PAD].tobytes().decode() for row in rows]


def assert_writers_match_python(values):
    values = np.asarray(values, dtype=np.float64)
    items = values.tolist()
    assert written(_digits.scientific(values)) == [cli.FLOAT_FORMAT % x for x in items]
    assert written(_digits.fixed(values)) == [f"{x:.2f}" for x in items]
    assert_reread_is_float_of_the_cell(values)


def assert_reread_is_float_of_the_cell(values):
    """`_digits.reread` gives float() of each `scientific` cell, to the bit, and
    warns of nothing (the CLI's smoke runs take warnings as errors)."""
    cells = np.array([float(cli.FLOAT_FORMAT % x) for x in np.ravel(values).tolist()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read = _digits.reread(values)
    assert np.array_equal(read.view(np.int64), cells.view(np.int64))


def thirteenth_digit_ties():
    """Doubles whose decimal expansion ends at a 5 in the 14th significant
    digit, exactly halfway between two 13-digit numbers: (2N + 1) 10^(e-12) / 2
    with 2N + 1 a multiple of 5^(12-e) below e = 12; and the exact cent ties
    k / 8 of `%.2f`."""
    rng = np.random.default_rng(26)
    ties = []
    for e in range(-7, 18):
        step = 5 ** max(0, 12 - e)
        for q in rng.integers(2 * 10**12 // step, 2 * 10**13 // step, size=40).tolist():
            tie = Fraction(step * (q | 1), 2) * Fraction(10) ** (e - 12)
            if float(tie) == tie:
                ties += [float(tie), -float(tie)]
    assert len(ties) > 500
    return ties + (np.arange(-8000, 8000) / 8).tolist()


class TestDecimalWriters:
    """Both writers against Python's own `%`, cell by cell."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_double(self, values):
        assert_writers_match_python(values)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.floats(0.0, 700.0) | st.floats(-1e9, 1e9), min_size=1, max_size=64))
    @example([-0.0, 0.0, 5e-324, np.nextafter(0.005, 0), 0.005, np.nextafter(0.005, 1), 999.995,
              999.996, np.nextafter(1000, 0), 1000.0, 1e9, -1e-10])  # the ends of `fixed`'s tables
    def test_plot_coordinates(self, values):
        assert_writers_match_python(values)

    def test_raw_bit_patterns(self):
        bits = np.random.default_rng(2026).integers(0, 2**64, size=100_000, dtype=np.uint64)
        assert_writers_match_python(bits.view(np.float64))

    def test_ties_round_half_even(self):
        assert_writers_match_python(thirteenth_digit_ties())

    def test_neighbours_of_every_power_of_ten(self):
        powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
        near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert_writers_match_python(np.concatenate([near, -near, [np.nan, np.inf, -np.inf]]))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.floats() | st.sampled_from(thirteenth_digit_ties()).flatmap(
        lambda tie: st.sampled_from([tie, np.nextafter(tie, -np.inf), np.nextafter(tie, np.inf)])),
        min_size=1, max_size=64))
    @example([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
              -1e-300, np.nan, np.inf, -np.inf,
              1e-10, 9.999999999999e-11, 1e-11, 1e34, 9.9999999999995e34, 1e35, -1e35])
    def test_reread_is_float_of_the_cell(self, values):
        # the 13 digits times or over an exact power of ten where the cell's
        # exponent is -10..34, Python's parser at 0, subnormals, nan, +-inf,
        # beyond, and next to a 13-digit tie
        assert_reread_is_float_of_the_cell(values)


def sweep_columns(count=2401):
    """The header and columns of `cascaded sweep` over `count` drives."""
    merged = dict(cli.DEFAULTS, drive_count=count)
    params = cli._phys_params(merged)
    sweep = spectra.amplitude_sweep(params, cli._grid(merged, "drive"), params.Omega)
    names = cascade.BRANCH_NAMES
    branch = [f"{'jump:' if jumped else ''}{names[first]}/{names[second]}"
              for jumped, first, second in zip(sweep.jumped, sweep.branch1, sweep.branch2)]
    cells, codes = np.unique(branch, return_inverse=True)
    return ("drive,branch,intensity1,intensity2,e_degree,stable",
            [sweep.drive, (tuple(cells.tolist()), codes), sweep.intensity1, sweep.intensity2,
             sweep.e_degree, sweep.stable])


def row_of(columns, i):
    """The columns of row `i` alone; a word column keeps its names."""
    return [(column[0], column[1][i:i + 1]) if isinstance(column, tuple) else column[i:i + 1]
            for column in columns]


class TestFormatCsv:
    def test_one_row_document_is_that_row_of_a_long_one(self):
        # one row goes through Python's `%`, 2401 through the array writer
        header, columns = sweep_columns()
        lines = cli.format_csv(header, columns).split("\n")
        assert len(lines) == 2403 and lines[-1] == ""
        assert sum(line.split(",")[1].startswith("jump:") for line in lines[1:-1]) == 1
        for i in (0, 1, 700, 1203, 2400):
            one = cli.format_csv(header, row_of(columns, i))
            assert one == f"{header}\n{lines[i + 1]}\n"

    @pytest.mark.parametrize("header, columns", [
        ("a,b", (np.arange(3.0), np.arange(2.0))),
        # a number or a length-1 column is not repeated down the rows
        ("a,b,c", (np.arange(3.0), np.array([1.0]), (("x",), 0))),
        ("a,b", (True, np.arange(2.0))),
        # a word column's codes are 1-D, like any other column
        ("a", ((("x",), np.zeros((2, 2), int)),))])
    def test_columns_of_two_lengths_are_refused(self, header, columns):
        with pytest.raises(ValueError, match="not one length"):
            cli.format_csv(header, columns)

    @pytest.mark.parametrize("header, columns, counts", [
        ("a,b", (np.arange(2.0),), "names 2 columns, got 1"),
        ("a", (np.arange(2.0), np.full(2, "x")), "names 1 columns, got 2")])
    def test_header_of_other_names_than_columns_is_refused(self, header, columns, counts):
        with pytest.raises(ValueError, match=counts):
            cli.format_csv(header, columns)

    @pytest.mark.parametrize("rows", [1, 100])
    def test_text_and_objects_under_the_float_specifier_are_refused(self, rows):
        # complex, object and bytes columns have no cells, in a one-row
        # document (Python's `%`) or a longer one (the array writer)
        for column in (np.full(rows, 1.5 + 0j), np.full(rows, 1.5, dtype=object),
                       np.full(rows, b"1.5")):
            with pytest.raises(TypeError, match="has no CSV cells"):
                cli.format_csv("a", (column,))

    @pytest.mark.parametrize("rows", [1, 100])
    def test_booleans_print_as_words_and_integers_as_floats(self, rows):
        # in a one-row document (Python's `%`) and a longer one (the array writer)
        flags, counts = np.arange(rows) % 2 == 0, np.arange(rows) * 7 - 3
        doc = cli.format_csv("n,flag", (counts, flags))
        assert doc.split("\n")[1:-1] == [f"{n:.12e},{str(f).lower()}"
                                         for n, f in zip(counts.tolist(), flags.tolist())]

    def test_text_cells_keep_every_character(self):
        # names with non-ASCII text and NUL inside a cell keep every
        # character; in documents of many rows (the array writer) and in each
        # row written as a one-row document (Python's `%`)
        names, ascii_names = ("é", "a\x00b", "", "\U0001f600"), ("a\x00b", "", "c")
        for rows in (4, 100):
            codes, ascii_codes = np.arange(rows) % 4, np.arange(rows) % 3
            columns = ((names, codes), (ascii_names, ascii_codes), np.arange(rows) * 30.0)
            lines = [f"{names[t]},{ascii_names[a]},{30 * i:.12e}"
                     for i, (t, a) in enumerate(zip(codes, ascii_codes))]
            assert cli.format_csv("t,a,x", columns).split("\n")[1:-1] == lines
            for i in range(min(rows, 12)):
                one = cli.format_csv("t,a,x", row_of(columns, i))
                assert one == f"t,a,x\n{lines[i]}\n"

    @pytest.mark.parametrize("codes", [np.array([-1, 0]), np.array([0, 2]), np.array([-1]),
                                       np.array([2])])
    def test_word_code_outside_the_names_is_refused(self, codes):
        # a negative code would name a cell from the end, one past the end none
        with pytest.raises(IndexError, match=r"outside 0\.\.1"):
            cli.format_csv("a", ((("x", "y"), codes),))

    @pytest.mark.parametrize("rows", [1, 100])
    def test_str_array_column_is_refused(self, rows):
        # words come as (names, codes), in a one-row document and a longer one
        with pytest.raises(TypeError, match="has no CSV cells"):
            cli.format_csv("a,b", (np.arange(rows) * 1.0, np.full(rows, "x")))

    def test_fast_path_serves_the_golden_runs(self, monkeypatch, capsys):
        # under 1% of the finite normal float cells of the five default
        # documents reach Python's `%` from the array writer, and every cell
        # of the three long ones goes to it: the fast path cannot silently stop
        counts = {"array": 0, "fallback": 0, "small": 0}
        scientific, formatted = _digits.scientific, _digits.formatted
        inside = []

        def normal(values):
            values = np.abs(np.asarray(values, dtype=np.float64))
            return int(np.count_nonzero(np.isfinite(values) & (values >= sys.float_info.min)))

        def spy_scientific(values):
            counts["array"] += np.size(values)
            inside.append(True)
            try:
                return scientific(values)
            finally:
                inside.pop()

        def spy_formatted(spec, values):
            counts["fallback" if inside else "small"] += normal(values)
            return formatted(spec, values)

        monkeypatch.setattr(_digits, "scientific", spy_scientific)
        monkeypatch.setattr(_digits, "formatted", spy_formatted)
        total, long_cells = 0, 0
        for argv, _ in GOLDEN_RUNS:
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            header, *rows = out.strip().split("\n")
            names = header.split(",")
            floats = [names.index(name) for name in names
                      if name not in ("branch1", "branch2", "branch", "stable")]
            cells = [row.split(",")[i] for row in rows for i in floats]
            total += normal(np.array(cells, dtype=float))
            long_cells += len(cells) if len(rows) > 1 else 0
        assert counts["array"] == long_cells
        assert counts["fallback"] < 0.01 * total
        assert counts["small"] == 4 + 12  # the point and steady documents


class Alarm(BaseException):
    """A CLI run that outlasted its alarm (not an error the CLI may catch)."""


def run_cli_alarmed(argv, seconds=10.0):
    """(code, out, err, warning messages) of one in-process CLI run, which
    SIGALRM interrupts after `seconds`."""
    def expire(signum, frame):
        raise Alarm(f"{argv} ran past {seconds} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


# flag values beside each field's typical ones: zeros, the float range's
# ends, values whose squares overflow or underflow, and ones no field takes
EXTREME_VALUES = ["0", "-0.0", "5e-324", "1e-300", "-1e-200", "1e-154", "1e154", "1e200",
                  "-1e300", "1.7976931348623157e+308", "nan", "inf", "abc"]
# what a successful run keeps true of each of these columns, on every row
# with a value (nan marks a row without one)
COLUMN_BOUNDS = {"prob_density": lambda v: v >= 0.0, "efficiency": lambda v: v >= 0.0,
                 "lin_entropy": lambda v: (v >= 0.0) & (v <= 1.0), "e_degree": lambda v: v > 0.0,
                 "s_qplus": lambda v: v > 0.0, "s_pminus": lambda v: v > 0.0}


def flag_values(key):
    """Values of the flag of field `key` as strings: typical, huge, tiny and extreme."""
    kind = cli._FIELD_TYPES.get(key, float)
    if kind is bool:
        return st.sampled_from(["true", "false", "maybe"])
    if kind is str:
        return st.sampled_from([*SELECTIONS, "bogus"])
    typical = cli.DEFAULTS[key] or cli.DEFAULTS["Omega"]  # omega_eval's default is Omega
    return st.one_of(st.floats(-10.0, 10.0).map(lambda f: repr(typical * f)),
                     st.sampled_from(EXTREME_VALUES),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def cli_requests(draw):
    """argv of a parameter subcommand with 1-3 of its flags drawn, on grids of at most 9
    points."""
    scenario, action = draw(st.sampled_from(sorted(cli.FIELDS)))
    fields = cli.FIELDS[scenario, action]
    keys = draw(st.lists(st.sampled_from([k for k in fields if not k.endswith("_count")]),
                         min_size=1, max_size=3, unique=True))
    argv = [scenario, action]
    for key in keys:
        argv.append(f"--{key.replace('_', '-')}={draw(flag_values(key))}")
    argv += [f"--{k.replace('_', '-')}={draw(st.integers(1, 9))}" for k in fields
             if k.endswith("_count")]
    if action == "point":
        argv.append(f"--x={draw(flag_values('x_min'))}")
    return argv


@settings(max_examples=800, derandomize=True, deadline=None)
@given(cli_requests())
# inf - inf in the first cavity's jump test, a non-finite first-cavity
# amplitude fed to the second cavity, and an overflowing variance product
@example(["cascaded", "sweep", "--gamma=1e-300", "--Delta1=1e-300", "--drive-count=4"])
@example(["cascaded", "sweep", "--gamma=2.225073858507e-311", "--Delta1=0",
          "--drive-min=2.225073858507e-311", "--drive-count=4"])
@example(["cascaded", "spectrum", "--chi=0", "--Gamma=1e-200"])
def test_cli_contract_property(argv):
    # whatever flags a request sets, the CLI exits 0, 1 or 2 without an
    # escaping exception or a warning; a successful run's columns stay in
    # range; a rerun gives the same bytes
    code, out, err, caught = run_cli_alarmed(argv)
    assert code in (0, cli.USAGE_ERROR, cli.NUMERICAL_ERROR), (argv, err)
    assert caught == [], (argv, caught)
    if code == 0:
        header, *rows = out.strip().split("\n")
        for name, column in zip(header.split(","), zip(*(row.split(",") for row in rows))):
            if name in COLUMN_BOUNDS:
                values = np.array(column, dtype=float)
                assert np.all(COLUMN_BOUNDS[name](values) | np.isnan(values)), (argv, name, values)
    else:
        assert out == "", argv
    assert run_cli_alarmed(argv)[:3] == (code, out, err)


def test_linear_cavity_whose_cubic_coefficient_underflows(capsys):
    # chi = 0 leaves the cubic linear, and (gamma/2)^2 underflows to 0 at
    # gamma = 2.4e-290: the drive power over it is no intensity, not a warning
    argv = ["cascaded", "spectrum", "--gamma", "2.4055855032578055e-290", "--chi", "0",
            "--Delta1", "0", "--omega-count", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.NUMERICAL_ERROR, "")
    assert err.startswith("numerical failure: no stable working point")


def test_epr_degree_of_forms_near_the_float_range(capsys):
    # the variances and the commutator are about 1e154 at Gamma = gamma =
    # 1e-154, so s_qplus s_pminus and |commutator|^2 overflow: e_degree was
    # nan and 0 where its ratio is about 4 and 1
    argv = ["cascaded", "sweep", "--Gamma", "1e-154", "--gamma", "1e-154", "--Delta1", "0",
            "--drive-count", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    e_degree = [float(line.split(",")[4]) for line in out.strip().split("\n")[1:]]
    params = cascade.PhysParams(chi=1.0, Omega=1000.0, Gamma=1e-154, gamma=1e-154, Delta1=0.0,
                                Delta2=1e4)
    steady = steady_grid(params, np.array([1e5, 1e9]), "follow")
    grid = spectra.epr_grid(params, steady, 1000.0)
    half = np.abs(grid.commutator) / 2.0
    assert np.all(half > 2**511)  # |commutator|^2 > 2^1024
    assert e_degree == pytest.approx((grid.s_qplus / half) * (grid.s_pminus / half), rel=1e-11)


# the CSV of golden/plot_edge_cases.svg
EDGE_CASES_CSV = """\
x,ends,single,all_nan,g1,g2,g3,const
0,1,nan,nan,0.5,1.5,2.5,3
1,2,4,nan,0.7,1.7,2.7,3
2,nan,nan,nan,nan,nan,nan,3
3,3,5,,0.2,1.2,2.2,3
4,nan,abc,nan,nan,nan,nan,3
5,2.5,6
6,1,nan,nan,0.1,1.1,2.1,3
bad,7,7,7,7,7,7,7
8,1.5,nan,nan,0.9,1.9,2.9,3
"""


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

    def test_missing_column_message_is_unquoted(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_text("a,b\n1,2\n")
        code, out, err = run_cli(["plot", str(path), "--x-column", "z", "--y-columns", "b"],
                                 capsys)
        assert (code, out) == (1, "")
        assert err == "error: column 'z' not in CSV header ['a', 'b']\n"

    def test_missing_csv_is_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(["plot", str(tmp_path / "no.csv"), "--x-column", "x",
                                  "--y-columns", "y"], capsys)
        assert (code, out) == (1, "")
        assert "cannot read CSV" in err

    def test_empty_csv_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, out, err = run_cli(["plot", str(path), "--x-column", "x", "--y-columns", "y"],
                                 capsys)
        assert (code, out) == (1, "")
        assert "empty CSV document" in err

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

    @pytest.mark.parametrize("argv,x_column,y_column", [
        (["cascaded", "sweep", "--chi", "3", "--drive-count", "2401"], "drive", "e_degree"),
        (["single-cavity", "sweep", "--zeta", "8", "--kappa", "0.1", "--x-min", "-30",
          "--x-max", "30", "--x-count", "241"], "x", "efficiency"),
        (["cascaded", "spectrum", "--drive", "1e5"], "omega", "e_degree"),
    ], ids=["unstable-sweep", "wide-profile", "low-drive-spectrum"])
    def test_plot_flag_equals_plot_of_its_csv(self, argv, x_column, y_column, tmp_path, capsys):
        # --plot draws the values its cells read as, so `plot` of the CSV
        # draws the same bytes
        code, _, err = run_cli([*argv, "--out", str(tmp_path / "run.csv"), "--plot"], capsys)
        assert code == 0, err
        code, svg, err = run_cli(["plot", str(tmp_path / "run.csv"), "--x-column", x_column,
                                  "--y-columns", y_column], capsys)
        assert code == 0, err
        assert svg == (tmp_path / "run.svg").read_text()
        assert "<polyline" in svg
        if argv[:2] == ["cascaded", "sweep"]:  # nan rows and a jump break the line
            assert "stroke-dasharray" in svg

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        # a missing directory for the CSV, a directory in the SVG's place
        code, out, err = run_cli(["single-cavity", "point", "--x", "0.5",
                                  "--out", str(tmp_path / "no" / "x.csv")], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {tmp_path / 'no' / 'x.csv'}: ")
        (tmp_path / "p.svg").mkdir()
        code, out, err = run_cli(["single-cavity", "sweep", "--x-count", "5",
                                  "--out", str(tmp_path / "p.csv"), "--plot"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {tmp_path / 'p.svg'}: ")
        assert "Traceback" not in err

    def test_plot_flag_refuses_svg_out(self, tmp_path, monkeypatch, capsys):
        # the SVG's path would be --out itself: refused before any computation,
        # and nothing is written
        def computed(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(spectra, "amplitude_sweep", computed)
        for name in ("p.svg", "p.SVG"):
            code, out, err = run_cli(["cascaded", "sweep", "--drive-count", "5",
                                      "--out", str(tmp_path / name), "--plot"], capsys)
            assert (code, out) == (1, "")
            assert err == ("error: --plot needs an --out not ending in .svg, "
                           f"got {tmp_path / name}\n")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("stem,x_column,y_column", [
        ("single_cavity_sweep", "x", "efficiency"),
        ("cascaded_sweep", "drive", "e_degree"),
        ("cascaded_spectrum", "omega", "e_degree"),
    ])
    def test_plot_of_golden_csv_matches_golden_svg(self, stem, x_column, y_column, capsys):
        # `plot CSV` and `--plot` draw the same SVG from the same CSV
        code, svg, err = run_cli(["plot", str(GOLDEN / f"{stem}.csv"), "--x-column", x_column,
                                  "--y-columns", y_column], capsys)
        assert code == 0, err
        assert svg.encode() == (GOLDEN / f"{stem}.svg").read_bytes()

    def test_plot_edge_cases_match_golden(self, tmp_path, capsys):
        # runs touching both ends, one-point runs, an all-nan series, three series
        # sharing their gaps, unparsable and missing cells, a constant series, and
        # seven series, so the palette wraps
        path = tmp_path / "edge.csv"
        path.write_text(EDGE_CASES_CSV)
        code, svg, err = run_cli(["plot", str(path), "--x-column", "x", "--y-columns",
                                  "ends,single,all_nan,g1,g2,g3,const", "--title", "edge cases"],
                                 capsys)
        assert code == 0, err
        assert svg.encode() == (GOLDEN / "plot_edge_cases.svg").read_bytes()

    def test_fast_path_serves_every_plot_coordinate(self, monkeypatch):
        # the golden plots and the extreme axis spans, in both axis orders,
        # send to Python's `%` only coordinates within the tables' rounding
        # error of a half cent, the exact ties among them; values off the plot
        # box do go there: the table path cannot silently stop
        to_python, formatted = [], _digits.formatted

        def near_a_tie(value):
            cents = Fraction(value) * 100
            return 0 < value < 640 and abs(cents % 1 - Fraction(1, 2)) < cents * Fraction(2) ** -51

        def spy_formatted(spec, values):
            if spec == _digits.FIXED:
                to_python.extend(values)
            return formatted(spec, values)

        monkeypatch.setattr(_digits, "formatted", spy_formatted)
        plots = [((GOLDEN / f"{stem}.csv").read_text(), x_column, y_column)
                 for stem, x_column, y_column in [("single_cavity_sweep", "x", "efficiency"),
                                                  ("cascaded_sweep", "drive", "e_degree"),
                                                  ("cascaded_spectrum", "omega", "e_degree")]]
        plots += [(text, "a", "b") for text in ("a,b\n1e17,1\n100000000000000016,2\n",
                                                "a,b\n-1e308,1\n1e308,2\n", "a,b\n0,1\n5e-324,2\n")]
        for csv_text, x_column, y_column in plots:
            for x_name, y_name in ((x_column, y_column), (y_column, x_column)):
                assert "<polyline" in render_plot(csv_text, x_name, [y_name])
                assert all(map(near_a_tie, to_python)), (x_name, y_name, to_python)
                to_python.clear()
        assert written(_digits.fixed(np.array([-1.0, 1000.5]))) == ["-1.00", "1000.50"]
        assert to_python == [-1.0, 1000.5]

    @pytest.mark.parametrize("csv_text,x_column,y_column", [
        # a span of one float spacing, below the tick step's: t + step == t
        ("a,b\n1e17,1\n100000000000000016,2\n", "a", "b"),
        ("a,b\n1e17,1\n100000000000000016,2\n", "b", "a"),
        # a span that overflows
        ("a,b\n-1e308,1\n1e308,2\n", "a", "b"),
        # one value, where value + 1 rounds back to the value
        ("a,b\n1e17,1\n1e17,2\n", "a", "b"),
    ], ids=["x-below-spacing", "y-below-spacing", "x-overflow", "x-one-value"])
    def test_extreme_axis_spans_draw(self, csv_text, x_column, y_column, tmp_path):
        # in a child process, so a tick loop that never ends fails on the timeout
        (tmp_path / "in.csv").write_text(csv_text)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-W", "error", "-m", "cavmotion.cli", "plot",
                                 "in.csv", "--x-column", x_column, "--y-columns", y_column],
                                cwd=tmp_path, env=env, capture_output=True, text=True,
                                timeout=20)
        assert result.returncode == 0, result.stderr
        svg = xml.dom.minidom.parseString(result.stdout)
        assert len(svg.getElementsByTagName("polyline")) == 1

    @pytest.mark.parametrize("csv_text,x_column,y_column", [
        ("a,b\n-1e308,1\n1e308,2\n", "a", "b"),
        ("a,b\n-1e308,1\n1e308,2\n", "b", "a"),
        ("a,b\n0,1\n5e-324,2\n", "a", "b"),
        ("a,b\n-1.7976931348623157e308,1\n1.7976931348623157e308,2\n", "b", "a"),
        ("a,b\n1.7976931348623157e308,1\n1.7976931348623157e308,2\n", "a", "b"),
    ], ids=["x-overflow", "y-overflow", "x-subnormal", "y-float-range", "x-largest-float"])
    def test_extreme_axis_spans_have_finite_coordinates(self, csv_text, x_column, y_column,
                                                        tmp_path, capsys):
        # a span that overflows is taken by halves, and one below the smallest
        # normal float is widened like a single value: no nan or inf anywhere
        path = tmp_path / "in.csv"
        path.write_text(csv_text)
        code, svg, err = run_cli(["plot", str(path), "--x-column", x_column,
                                  "--y-columns", y_column], capsys)
        assert code == 0, err
        assert "nan" not in svg and "inf" not in svg
        dom = xml.dom.minidom.parseString(svg)
        for tag, names in (("line", ("x1", "y1", "x2", "y2")), ("text", ("x", "y"))):
            for node in dom.getElementsByTagName(tag):
                assert all(0.0 <= float(node.getAttribute(name)) <= 640.0 for name in names)
        points = dom.getElementsByTagName("polyline")[0].getAttribute("points").split()
        assert len(points) == 2

    def test_plot_text_is_escaped(self, tmp_path, capsys):
        path = tmp_path / "names.csv"
        path.write_text("x&y,b<c\n0,1\n1,2\n")
        code, svg, err = run_cli(["plot", str(path), "--x-column", "x&y", "--y-columns", "b<c",
                                  "--title", "a<b & c"], capsys)
        assert code == 0, err
        texts = [node.firstChild.data
                 for node in xml.dom.minidom.parseString(svg).getElementsByTagName("text")]
        assert {"a<b & c", "x&y", "b<c"} <= set(texts)


def test_default_subcommands_load_no_scipy(tmp_path):
    # numpy is the one runtime dependency: scipy serves the tests alone; and
    # no subcommand writes text with numpy.char (or numpy.strings behind it)
    script = """
import contextlib, io, sys
from cavmotion import cli
for argv in (["single-cavity", "sweep", "--out", "profile.csv"],
             ["single-cavity", "point", "--x", "0.5"], ["cascaded", "steady"],
             ["cascaded", "sweep"], ["cascaded", "spectrum"],
             ["plot", "profile.csv", "--x-column", "x", "--y-columns", "efficiency"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(",".join(sorted(name for name in sys.modules
                     if name.startswith(("scipy", "numpy.char", "numpy.strings")))))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"
