"""Command-line driver: parameter input, sweeps, CSV emission, SVG plots.

Subcommands
    single-cavity sweep      efficiency profile over a quadrature grid
    single-cavity point      one conditional outcome (--x)
    cascaded steady          one steady-state working point
    cascaded sweep           E(omega_eval) vs drive with branch continuation
    cascaded spectrum        E(omega) over a frequency grid at fixed drive
    plot                     CSV -> SVG polylines

Every physical value can come from a flag (of the subcommands that read
it, see FIELDS), a `key = value` config file (--config, any key), or a
built-in default, in that precedence order.  Output is deterministic: the
same effective configuration yields byte-identical documents.  Exit codes:
0 success, 1 usage/config error, 2 numerical failure.
"""

import argparse
import dataclasses
import functools
import math
import os
import re
import sys

import numpy as np

from . import _digits, conditional, spectra, svgplot
from .cascade import BRANCH_NAMES, SELECTIONS, PhysParams, residual, steady_grid
from .fock import TruncationPolicy

USAGE_ERROR, NUMERICAL_ERROR = 1, 2
FLOAT_FORMAT = _digits.SCIENTIFIC  # "%.12e", the format of every float cell
# the sweep's `branch` cells, laid out [jumped, branch1, branch2] by the branch codes
BRANCH_CELLS = tuple(f"{jump}{first}/{second}" for jump in ("", "jump:")
                     for first in BRANCH_NAMES for second in BRANCH_NAMES)

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

_FIELD_TYPES = {key: float if value is None else type(value) for key, value in DEFAULTS.items()}


class UsageError(ValueError):
    pass


_KIND_NAMES = {bool: "a boolean", int: "an int", float: "a float"}  # for error messages
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(key, raw, flag=False):
    """raw as the type of field `key`, or a usage error naming its flag or config key."""
    kind = _FIELD_TYPES[key]
    try:
        return _BOOLEANS[str(raw).strip().lower()] if kind is bool else kind(raw)
    except (ValueError, KeyError) as exc:
        what = _KIND_NAMES[kind]
        raise UsageError(f"--{key.replace('_', '-')} must be {what}, got {raw!r}" if flag
                         else f"config value for {key} is not {what}: {raw!r}") from exc


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
    """Merge flag > config file > default into one flat dict, checking the
    values of the fields the subcommand reads (FIELDS); a config file's
    other lines need only a known key and a value of its type."""
    fields = FIELDS[args.scenario, args.action]
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    for key in fields:
        if getattr(args, key) is not None:
            merged[key] = _coerce(key, getattr(args, key), flag=True)
        value = merged[key]
        if _FIELD_TYPES[key] is float and value is not None and not math.isfinite(value):
            raise UsageError(f"parameter {key} must be finite, got {value}")
    if getattr(args, "x", None) is not None and not math.isfinite(args.x):
        raise UsageError(f"--x must be finite, got {args.x}")
    if "selection" in fields and merged["selection"] not in SELECTIONS:
        raise UsageError(f"selection must be one of {', '.join(SELECTIONS)}, "
                         f"got {merged['selection']!r}")
    for grid in (name for name in ("x", "drive", "omega") if f"{name}_count" in fields):
        lo, hi, count = merged[f"{grid}_min"], merged[f"{grid}_max"], merged[f"{grid}_count"]
        if count < 1:
            raise UsageError(f"{grid} grid needs count >= 1, got {count}")
        if lo > hi:
            raise UsageError(f"{grid} grid needs min <= max, got [{lo}, {hi}]")
        if merged.get(f"{grid}_log", False) and lo <= 0:
            raise UsageError(f"log-spaced {grid} grid needs min > 0, got {lo}")
    return merged


def _grid(merged, name):
    lo, hi, count = merged[f"{name}_min"], merged[f"{name}_max"], merged[f"{name}_count"]
    with np.errstate(over="ignore"):  # only at the last point, which numpy sets to hi
        if merged.get(f"{name}_log", False):
            return np.geomspace(lo, hi, count)
        scale = 1.0 if math.isfinite(hi - lo) else 2.0  # halves where the span overflows
        return scale * np.linspace(lo / scale, hi / scale, count)


def _checked(build, merged, names):
    """build(**values of `names`), refusing an out-of-range value as a usage
    error."""
    try:
        return build(**{name: merged[name] for name in names})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _phys_params(merged):
    return _checked(PhysParams, merged, PHYS_FIELDS)


def _policy(merged):
    """The truncation policy of a single-cavity run; its kappa is refused
    here too when negative, before any computation."""
    if merged["kappa"] < 0:
        raise UsageError(f"kappa must be >= 0, got {merged['kappa']}")
    return _checked(TruncationPolicy, merged, ("tail_epsilon",))


BLOCK_ROWS = 1024  # rows per array pass, which bounds the writer's temporaries


def _pair(column):
    """(names, codes) of a word column, (None, values) of a numeric one; a
    boolean array is named false/true."""
    names, column = column if isinstance(column, tuple) else (None, column)
    column = np.atleast_1d(column)
    return ("false", "true") if names is None and column.dtype == bool else names, column


def format_csv(header, columns):
    """CSV text: the header line, then one line per row of the columns, its
    cells joined by ",".

    A column is an array of integers or floats, each cell FLOAT_FORMAT of
    its value, or a word column: a pair `(names, codes)` of a sequence of
    str and an array of integer codes, each cell `names[code]`; a code
    outside 0..len(names) - 1 is refused (IndexError).  A boolean array is
    the word column `(("false", "true"), column)`.  Any other dtype (str,
    complex, object, bytes) is refused (TypeError).  The arrays are
    1-D and of one length, or numbers for a one-row document; arrays of two
    shapes are refused (ValueError), as is a header that names more or fewer
    columns.  A one-row document's cells are its names and Python's `%` of
    its values.  In a longer one each word column becomes the byte rows of
    its cells in one gather from its names, the float cells of each block of
    BLOCK_ROWS rows go through one array writer call (`_digits.scientific`),
    which takes Python's own conversion for the cells it cannot decide (near
    a rounding boundary, 0, subnormal, beyond 1e+-290, nan, inf), and
    `_digits.lines` joins the block's cells into its lines.
    """
    count = header.count(",") + 1
    if count != len(columns):
        raise ValueError(f"header {header!r} names {count} columns, got {len(columns)}")
    pairs = [_pair(column) for column in columns]
    for names, codes in pairs:
        if codes.dtype.kind not in ("iuf" if names is None else "biu"):
            raise TypeError(f"a column of {codes.dtype} has no CSV cells")
        if names is not None and np.any((codes < 0) | (codes >= len(names))):
            raise IndexError(f"word codes outside 0..{len(names) - 1} of {names}")
    if len({codes.shape for _, codes in pairs}) > 1 or pairs[0][1].ndim > 1:
        raise ValueError(f"columns of shapes {[codes.shape for _, codes in pairs]} "
                         "are not one length")
    rows = len(pairs[0][1])
    if rows == 1:  # the array writer's fixed cost, some 70-110 us, outweighs `%` here
        cells = [_digits.formatted(FLOAT_FORMAT, [float(codes[0])])[0] if names is None
                 else names[int(codes[0])] for names, codes in pairs]
        return f"{header}\n{','.join(cells)}\n"
    columns = [np.asarray(codes, dtype=np.float64) if names is None
               else _digits.padded(names)[np.asarray(codes, dtype=np.intp)]
               for names, codes in pairs]
    blocks = ([column[start:start + BLOCK_ROWS] for column in columns]
              for start in range(0, rows, BLOCK_ROWS))
    return header + "\n" + "".join(_lines(block) for block in blocks)


def _lines(columns):
    """The lines of one block of rows, all float cells in one array writer
    call; a word column comes as the byte rows of its cells."""
    rows = len(columns[0])
    floats = [column for column in columns if column.ndim == 1]
    block = np.empty((rows, len(floats)))
    for k, column in enumerate(floats):
        block[:, k] = column
    written = _digits.scientific(block)
    float_cells = iter(written.reshape(rows, len(floats), written.shape[1]).transpose(1, 0, 2))
    return _digits.lines([next(float_cells) if column.ndim == 1 else column
                          for column in columns], ",", "\n")


def run_single_cavity(merged, x_values=None):
    """Efficiency-profile CSV (header, columns) for the conditional single-cavity
    scenario; an error column marks unresolvable outcomes when there are any."""
    if x_values is None:
        x_values = _grid(merged, "x")
    profile = conditional.efficiency_profile(
        merged["zeta"], merged["kappa"], merged["time"],
        x_grid=np.asarray(x_values, dtype=float), policy=_policy(merged))
    columns = [profile.x, profile.prob_density, profile.lin_entropy, profile.efficiency]
    header = "x,prob_density,lin_entropy,efficiency"
    unresolvable = profile.status != conditional.OK
    if unresolvable.any():
        columns.append((("", "unresolvable"), unresolvable))
        header += ",error"
    return header, columns


def _working_point(merged):
    """(params, steady branch, stable?) at the configured drive."""
    params = _phys_params(merged)
    branch = steady_grid(params, np.array([merged["drive"]]), merged["selection"])[0]
    return params, branch, spectra.stability_grid(params, branch)


def run_cascaded_steady(merged):
    """Single-working-point CSV (header, columns) for the cascaded scenario."""
    params, branch, stable = _working_point(merged)
    amplitudes = (branch.zeta1, branch.zeta2, branch.alpha, branch.beta)
    return (
        "drive,branch1,branch2,intensity1,intensity2,zeta1_re,zeta1_im,zeta2_re,zeta2_im,"
        "alpha_re,alpha_im,beta_re,beta_im,residual,stable",
        (merged["drive"], (BRANCH_NAMES, branch.branch1), (BRANCH_NAMES, branch.branch2),
         branch.intensity1, branch.intensity2,
         *(part for z in amplitudes for part in (z.real, z.imag)),
         residual(params, branch), stable))


def run_cascaded(merged, drive_values=None):
    """Amplitude-sweep CSV (header, columns): drive,branch,intensity1,intensity2,e_degree,stable."""
    params = _phys_params(merged)
    omega_eval = params.Omega if merged["omega_eval"] is None else merged["omega_eval"]
    if drive_values is None:
        drive_values = _grid(merged, "drive")
    sweep = spectra.amplitude_sweep(params, np.asarray(drive_values, dtype=float), omega_eval)
    branch = np.ravel_multi_index((sweep.jumped, sweep.branch1, sweep.branch2),
                                  (2, len(BRANCH_NAMES), len(BRANCH_NAMES)))
    return (
        "drive,branch,intensity1,intensity2,e_degree,stable",
        (sweep.drive, (BRANCH_CELLS, branch), sweep.intensity1, sweep.intensity2,
         np.where(np.isfinite(sweep.e_degree), sweep.e_degree, np.nan), sweep.stable))


def run_cascaded_spectrum(merged):
    """Frequency-scan CSV (header, columns) at one drive on the selected branch (`epr_grid`)."""
    params, branch, stable = _working_point(merged)
    if not stable:
        raise ArithmeticError(
            f"no stable working point at drive {merged['drive']} "
            f"(branches {BRANCH_NAMES[branch.branch1]}/{BRANCH_NAMES[branch.branch2]})")
    g = spectra.epr_grid(params, branch, _grid(merged, "omega"))
    columns = (g.omega, g.s_qplus, g.s_pminus, g.commutator.imag, g.e_degree, g.variance_product)
    return "omega,s_qplus,s_pminus,commutator_im,e_degree,variance_product", columns


def run_plot(csv_path, x_column, y_columns, title=""):
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read CSV {csv_path}: {exc}") from exc
    try:
        return svgplot.render_plot(text, x_column, y_columns, title=title)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_out(text, out):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: "--omega" must not reach sweep's one --omega-* flag
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # argparse reads "-1e-05" as an option; take it as a number like "-1"
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.I)

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand refuses a flag it does not take with its own usage line
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    # argparse exits with 2 on usage problems; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_common(sub, plot):
    sub.add_argument("--config", help="key = value parameter file")
    sub.add_argument("--out", help="output path (default: stdout)")
    if plot:
        sub.add_argument("--plot", action="store_true",
                         help="also write an SVG next to --out")


def _add_params(sub, names):
    for name in names:
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)


PHYS_FIELDS = tuple(field.name for field in dataclasses.fields(PhysParams))
SINGLE_FIELDS = ("zeta", "kappa", "time", "tail_epsilon")
# each subcommand's flags: the fields it reads (a config file may set any)
FIELDS = {
    ("single-cavity", "sweep"): SINGLE_FIELDS + ("x_min", "x_max", "x_count"),
    ("single-cavity", "point"): SINGLE_FIELDS,
    ("cascaded", "steady"): PHYS_FIELDS + ("drive", "selection"),
    ("cascaded", "sweep"): PHYS_FIELDS + ("drive_min", "drive_max", "drive_count", "drive_log",
                                          "omega_eval"),
    ("cascaded", "spectrum"): PHYS_FIELDS + ("drive", "selection", "omega_min", "omega_max",
                                             "omega_count", "omega_log"),
}


@functools.cache
def build_parser():
    """The CLI's argument parser, built once per process (parsing leaves it
    unchanged)."""
    parser = _Parser(prog="cavmotion",
                     description="Radiation-pressure atomic-motion entangling simulator")
    top = parser.add_subparsers(dest="scenario", required=True)
    actions = {name: top.add_parser(name, help=text).add_subparsers(dest="action", required=True)
               for name, text in (("single-cavity", "conditional measurement scenario"),
                                  ("cascaded", "cascaded steady-state scenario"))}
    for (scenario, action), fields in FIELDS.items():
        sub = actions[scenario].add_parser(action)
        _add_common(sub, plot=action != "steady")  # a working point has no curve to plot
        _add_params(sub, fields)
        if action == "point":
            sub.add_argument("--x", required=True, type=float, help="quadrature outcome")

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
        if plot and os.path.splitext(args.out)[1].lower() == ".svg":
            raise UsageError(f"--plot needs an --out not ending in .svg, got {args.out}")
        merged = resolve_config(args)
        if args.scenario == "single-cavity":
            document = run_single_cavity(merged, [args.x] if args.action == "point" else None)
            axes = ("x", ["efficiency"])
        else:
            run, axes = {"steady": (run_cascaded_steady, None),
                         "sweep": (run_cascaded, ("drive", ["e_degree"])),
                         "spectrum": (run_cascaded_spectrum, ("omega", ["e_degree"]))}[args.action]
            document = run(merged)
        _write_out(format_csv(*document), args.out)
        if plot:  # the values its cells read as, so `plot` of the CSV draws the same SVG
            (x_column, y_columns), cells = axes, dict(zip(document[0].split(","), document[1]))
            xs, *series = [_digits.reread(cells[name]) for name in [x_column, *y_columns]]
            _write_out(svgplot.draw(xs, x_column, series, y_columns),
                       os.path.splitext(args.out)[0] + ".svg")
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
