"""Command-line driver: parameter input, sweeps, CSV emission, SVG plots.

Subcommands
    single-cavity sweep      efficiency profile over a quadrature grid
    single-cavity point      one conditional outcome (--x)
    cascaded steady          one steady-state working point
    cascaded sweep           E(omega_eval) vs drive with branch continuation
    cascaded spectrum        E(omega) over a frequency grid at fixed drive
    plot                     CSV -> SVG polylines

Every physical value can come from a flag, a `key = value` config file
(--config), or a built-in default, in that precedence order.  Output is
deterministic: the same effective configuration yields byte-identical
documents.  Exit codes: 0 success, 1 usage/config error, 2 numerical
failure.
"""

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import conditional, spectra, svgplot
from .cascade import SELECTIONS, PhysParams, residual, steady_state
from .fock import DEFAULT_HARD_CAP, TruncationPolicy

USAGE_ERROR, NUMERICAL_ERROR = 1, 2
FLOAT_FORMAT = "%.12e"

DEFAULTS = {
    # single-cavity scenario (time in scaled units, Omega*t -> t)
    "zeta": 0.8,
    "kappa": 1.0,
    "time": math.pi,
    "x_min": -4.0,
    "x_max": 4.0,
    "x_count": 161,
    # truncation policy
    "tail_epsilon": 1e-12,
    "hard_cap": DEFAULT_HARD_CAP,
    # cascaded scenario (rates in units of gamma)
    "chi": 1.0,
    "Omega": 1000.0,
    "Gamma": 1e-3,
    "gamma": 1.0,
    "Delta1": 1e4,
    "Delta2": 1e4,
    "drive": 1e6,
    "drive_min": 1e5,
    "drive_max": 1e9,
    "drive_count": 241,
    "drive_log": True,
    "omega_min": 100.0,
    "omega_max": 10000.0,
    "omega_count": 201,
    "omega_log": True,
    "omega_eval": None,   # None -> Omega
    "selection": "lowest",
}

_FIELD_TYPES = {
    "x_count": int, "drive_count": int, "omega_count": int, "hard_cap": int,
    "drive_log": bool, "omega_log": bool, "selection": str,
}


class UsageError(ValueError):
    pass


def _coerce(key, raw):
    kind = _FIELD_TYPES.get(key, float)
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        lowered = str(raw).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config value for {key} is not a boolean: {raw!r}")
    try:
        return kind(raw) if kind is not float else float(raw)
    except ValueError as exc:
        raise UsageError(f"config value for {key} is not a {kind.__name__}: {raw!r}") from exc


def parse_config_file(path):
    """`key = value` lines; '#' starts a comment; blank lines ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown parameter {key!r}")
        values[key] = _coerce(key, raw)
    return values


def resolve_config(args):
    """Merge flag > config file > default into one flat dict."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
    for key, value in merged.items():
        if _FIELD_TYPES.get(key, float) is float and value is not None and not math.isfinite(value):
            raise UsageError(f"parameter {key} must be finite, got {value}")
    if getattr(args, "x", None) is not None and not math.isfinite(args.x):
        raise UsageError(f"--x must be finite, got {args.x}")
    if not 1 <= merged["hard_cap"] <= DEFAULT_HARD_CAP:
        raise UsageError(f"hard_cap must be in [1, {DEFAULT_HARD_CAP}], got {merged['hard_cap']}")
    if merged["selection"] not in SELECTIONS:
        raise UsageError(f"selection must be one of {', '.join(SELECTIONS)}, "
                         f"got {merged['selection']!r}")
    for grid in ("x", "drive", "omega"):
        lo, hi, count = merged[f"{grid}_min"], merged[f"{grid}_max"], merged[f"{grid}_count"]
        if count < 1:
            raise UsageError(f"{grid} grid needs count >= 1, got {count}")
        if lo > hi:
            raise UsageError(f"{grid} grid needs min <= max, got [{lo}, {hi}]")
    return merged


def _grid(merged, name):
    lo, hi, count = merged[f"{name}_min"], merged[f"{name}_max"], merged[f"{name}_count"]
    if count == 1:
        return np.array([lo])
    if merged.get(f"{name}_log", False):
        if lo <= 0:
            raise UsageError(f"log-spaced {name} grid needs min > 0, got {lo}")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _phys_params(merged):
    return PhysParams(chi=merged["chi"], Omega=merged["Omega"], Gamma=merged["Gamma"],
                      gamma=merged["gamma"], Delta1=merged["Delta1"], Delta2=merged["Delta2"])


def _policy(merged):
    return TruncationPolicy(tail_epsilon=merged["tail_epsilon"], hard_cap=merged["hard_cap"])


def format_csv(header, template, blocks):
    """CSV text: the header line, then `template % row` for every index of
    each block's columns (equal-length arrays, or numbers for one row);
    booleans print as true/false."""
    lines = [header]
    for columns in blocks:
        cells = [np.atleast_1d(column) for column in columns]
        cells = [np.where(c, "true", "false") if c.dtype == bool else c for c in cells]
        lines.extend(template % row for row in zip(*(c.tolist() for c in cells)))
    return "\n".join(lines) + "\n"


def run_single_cavity(merged, x_values=None):
    """Efficiency-profile CSV for the conditional single-cavity scenario;
    an error column marks unresolvable outcomes when there are any."""
    if x_values is None:
        x_values = _grid(merged, "x")
    profile = conditional.efficiency_profile(
        merged["zeta"], merged["kappa"], merged["time"],
        x_grid=np.asarray(x_values, dtype=float), policy=_policy(merged))
    columns = [profile.x, profile.prob_density, profile.lin_entropy, profile.efficiency]
    header, template = "x,prob_density,lin_entropy,efficiency", ",".join([FLOAT_FORMAT] * 4)
    unresolvable = profile.error.astype(bool)  # None is False, a message True
    if unresolvable.any():
        columns.append(np.where(unresolvable, "unresolvable", ""))
        header, template = header + ",error", template + ",%s"
    return format_csv(header, template, [columns])


def _working_point(merged):
    """(params, steady branch, drift, stable?) at the configured drive."""
    params = _phys_params(merged)
    branch = steady_state(params, merged["drive"], selection=merged["selection"])
    drift = spectra.build_drift(params, branch)
    return params, branch, drift, spectra.classify_stability(drift)[0]


def run_cascaded_steady(merged):
    """Single-working-point CSV for the cascaded scenario."""
    params, branch, _, stable = _working_point(merged)
    amplitudes = (branch.zeta1, branch.zeta2, branch.alpha, branch.beta)
    return format_csv(
        "drive,branch1,branch2,intensity1,intensity2,zeta1_re,zeta1_im,zeta2_re,zeta2_im,"
        "alpha_re,alpha_im,beta_re,beta_im,residual,stable",
        ",".join([FLOAT_FORMAT, "%s", "%s"] + [FLOAT_FORMAT] * 11 + ["%s"]),
        [(merged["drive"], branch.branch1, branch.branch2, branch.intensity1, branch.intensity2,
          *(part for z in amplitudes for part in (z.real, z.imag)),
          residual(params, branch), stable)])


def run_cascaded(merged, drive_values=None):
    """Amplitude-sweep CSV: drive,branch,intensity1,intensity2,e_degree,stable."""
    params = _phys_params(merged)
    omega_eval = params.Omega if merged["omega_eval"] is None else merged["omega_eval"]
    if drive_values is None:
        drive_values = _grid(merged, "drive")
    sweep = spectra.amplitude_sweep(params, np.asarray(drive_values, dtype=float), omega_eval)
    return format_csv(
        "drive,branch,intensity1,intensity2,e_degree,stable",
        ",".join([FLOAT_FORMAT, "%s%s/%s"] + [FLOAT_FORMAT] * 3 + ["%s"]),
        [(sweep.drive, np.where(sweep.jumped, "jump:", ""), sweep.branch1, sweep.branch2,
          sweep.intensity1, sweep.intensity2,
          np.where(np.isfinite(sweep.e_degree), sweep.e_degree, np.nan), sweep.stable)])


def run_cascaded_spectrum(merged):
    """Frequency-scan CSV at one drive on the selected branch, solved and
    written GRID_BLOCK frequencies at a time."""
    params, branch, drift, stable = _working_point(merged)
    if not stable:
        raise ArithmeticError(
            f"no stable working point at drive {merged['drive']} "
            f"(branches {branch.branch1}/{branch.branch2})")
    noise = spectra.build_noise(params)
    omegas = _grid(merged, "omega")
    grids = (spectra.epr_grid(drift, noise, omegas[start:start + spectra.GRID_BLOCK])
             for start in range(0, omegas.size, spectra.GRID_BLOCK))
    return format_csv("omega,s_qplus,s_pminus,commutator_im,e_degree,variance_product",
                      ",".join([FLOAT_FORMAT] * 6),
                      ((g.omega, g.s_qplus, g.s_pminus, g.commutator.imag, g.e_degree,
                        g.variance_product) for g in grids))


def run_plot(csv_path, x_column, y_columns, title=""):
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read CSV {csv_path}: {exc}") from exc
    try:
        return svgplot.render_plot(text, x_column, y_columns, title=title)
    except (KeyError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _write_out(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-05" as an option; take it as a number like "-1"
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.I)

    # argparse exits with 2 on usage problems; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_common(sub, plot=True):
    sub.add_argument("--config", help="key = value parameter file")
    sub.add_argument("--out", help="output path (default: stdout)")
    if plot:  # a working point has no curve to plot
        sub.add_argument("--plot", action="store_true",
                         help="also write an SVG next to --out")


def _add_params(sub, names):
    for name in names:
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)


SINGLE_FIELDS = ("zeta", "kappa", "time", "x_min", "x_max", "x_count",
                 "tail_epsilon", "hard_cap")
CASCADED_FIELDS = ("chi", "Omega", "Gamma", "gamma", "Delta1", "Delta2",
                   "drive", "drive_min", "drive_max", "drive_count", "drive_log",
                   "omega_min", "omega_max", "omega_count", "omega_log",
                   "omega_eval", "selection")


@functools.cache
def build_parser():
    """The CLI's argument parser, built once per process (parsing leaves it
    unchanged)."""
    parser = _Parser(prog="cavmotion",
                     description="Radiation-pressure atomic-motion entangling simulator")
    top = parser.add_subparsers(dest="scenario", required=True)

    single = top.add_parser("single-cavity", help="conditional measurement scenario")
    single_sub = single.add_subparsers(dest="action", required=True)
    for action in ("sweep", "point"):
        sub = single_sub.add_parser(action)
        _add_common(sub)
        _add_params(sub, SINGLE_FIELDS)
        if action == "point":
            sub.add_argument("--x", required=True, type=float,
                             help="quadrature outcome")

    casc = top.add_parser("cascaded", help="cascaded steady-state scenario")
    casc_sub = casc.add_subparsers(dest="action", required=True)
    for action in ("steady", "sweep", "spectrum"):
        sub = casc_sub.add_parser(action)
        _add_common(sub, plot=action != "steady")
        _add_params(sub, CASCADED_FIELDS)

    plot = top.add_parser("plot", help="CSV to SVG")
    plot.add_argument("csv_path")
    plot.add_argument("--x-column", required=True)
    plot.add_argument("--y-columns", required=True,
                      help="comma-separated column names")
    plot.add_argument("--title", default="")
    plot.add_argument("--out", help="output path (default: stdout)")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.scenario == "plot":
            svg = run_plot(args.csv_path, args.x_column, args.y_columns.split(","), args.title)
            _write_out(svg, args.out)
            return 0
        plot = getattr(args, "plot", False)
        if plot and args.out is None:
            raise UsageError("--plot needs --out to derive the SVG path")
        merged = resolve_config(args)
        if args.scenario == "single-cavity":
            csv_text = run_single_cavity(merged, [args.x] if args.action == "point" else None)
            axes = ("x", ["efficiency"])
        else:
            run, axes = {"steady": (run_cascaded_steady, None),
                         "sweep": (run_cascaded, ("drive", ["e_degree"])),
                         "spectrum": (run_cascaded_spectrum, ("omega", ["e_degree"]))}[args.action]
            csv_text = run(merged)
        _write_out(csv_text, args.out)
        if plot:
            _write_out(svgplot.render_plot(csv_text, *axes), os.path.splitext(args.out)[0] + ".svg")
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
