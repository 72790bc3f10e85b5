"""Seeded request streams, one per workload, in blocks of requests.

Each workload is an endless stream of blocks drawn from the benchmark
seed, so the same seed always yields the same requests.  Every block has
the same make-up: one request per cell of a fixed design (a Latin
hypercube or a full grid) over the parameters that set a request's cost,
each placed inside its cell by a seeded low-discrepancy sequence
(`_kronecker`) and run in a seeded order.  A run stops only between
blocks, so runs on different seeds see the same cost mix; with free
draws, a profile sweep costing 0.04-0.14 s and a point request costing
4 ms would mix in a different ratio for every seed.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

X_GRID = np.linspace(-4.0, 4.0, 161)
X_FLAGS = ("--x-min", "-4", "--x-max", "4", "--x-count", "161")
DRIVE_GRID = np.geomspace(1e5, 1e9, 2401)
DRIVE_FLAGS = ("--drive-min", "1e5", "--drive-max", "1e9", "--drive-count", "2401")
OMEGA_GRID = np.geomspace(100.0, 1e4, 2001)
OMEGA_FLAGS = ("--omega-min", "100", "--omega-max", "10000", "--omega-count", "2001")
PROBE_OMEGA_GRID = np.geomspace(100.0, 1e4, 21)
PROBE_OMEGA_FLAGS = ("--omega-min", "100", "--omega-max", "10000", "--omega-count", "21")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ZETA_LARGE = (5.0, 8.0)
KAPPA_LARGE = (0.01, 2.0)
LARGE_GRID = 4
ZETA_SMALL = (0.5, 3.0)
KAPPA_SMALL = (0.003, 2.0)
SMALL_GRID = 4
POINTS_PER_SWEEP = 16


@dataclass(frozen=True)
class Request:
    """One CLI call; `grid` is the x, drive or omega column it must echo."""

    kind: str  # "profile", "sweep" or "spectrum"
    argv: tuple
    grid: np.ndarray
    plot: bool = False
    zeta: float = 0.0
    kappa: float = 0.0


def _kronecker(rng):
    """Endless in-cell offsets in [0, 1): a golden-ratio sequence from a seeded start.

    Any n consecutive offsets spread evenly over [0, 1): a subinterval of
    length L holds n L of them give or take one or two, where independent
    draws would put n L +- sqrt(n L) there.  So a run sees nearly the same
    parameter values, and fails nearly the same share of rows near a sharp
    boundary in parameter space, whatever its seed.
    """
    offset = rng.random()
    while True:
        yield offset
        offset = (offset + GOLDEN) % 1.0


def _offsets(rng, count):
    """Endless tuples of `count` in-cell offsets, one tuple per block, one sequence per cell."""
    return zip(*(_kronecker(rng) for _ in range(count)))


def _in_cell(lo, hi, cell, count, offset, log=False):
    """The value at `offset` in [0, 1) inside cell `cell` of `count` equal cells of [lo, hi)."""
    if log:
        return math.exp(_in_cell(math.log(lo), math.log(hi), cell, count, offset))
    return lo + (hi - lo) * (cell + offset) / count


def _cells(offsets, lo, hi, log=False):
    """One value inside each equal cell of [lo, hi), at the given in-cell offsets."""
    return [_in_cell(lo, hi, i, len(offsets), u, log) for i, u in enumerate(offsets)]


def _profile(zeta, kappa, x=None):
    params = ("--zeta", repr(zeta), "--kappa", repr(kappa))
    if x is None:
        return Request("profile", ("single-cavity", "sweep", *params, *X_FLAGS),
                       X_GRID, zeta=zeta, kappa=kappa)
    return Request("profile", ("single-cavity", "point", f"--x={x!r}", *params),
                   np.array([x]), zeta=zeta, kappa=kappa)


def _grid_sweeps(zetas, kappas, zeta_offsets, kappa_offsets):
    """One sweep inside each cell of a square grid over (zeta, log kappa).

    The cells of one grid row draw from one offset sequence, and so do the
    cells of one grid column, so each interval of zeta and of kappa is
    covered evenly across the whole run.
    """
    grid = len(zeta_offsets)
    return [_profile(_in_cell(*zetas, i, grid, next(zeta_offsets[i])),
                     _in_cell(*kappas, j, grid, next(kappa_offsets[j]), log=True))
            for i in range(grid) for j in range(grid)]


def profile_large(rng):
    # zeta in [5, 8] keeps N in 70..128, under the profile order cap.  A
    # block sweeps once in each cell of a LARGE_GRID x LARGE_GRID grid over
    # (zeta, log kappa), so every block costs about the same and fails the
    # same share of rows whatever the seed.
    zeta_offsets = [_kronecker(rng) for _ in range(LARGE_GRID)]
    kappa_offsets = [_kronecker(rng) for _ in range(LARGE_GRID)]
    while True:
        block = _grid_sweeps(ZETA_LARGE, KAPPA_LARGE, zeta_offsets, kappa_offsets)
        rng.shuffle(block)
        yield block


def profile_small(rng):
    # A block sweeps once in each cell of a SMALL_GRID x SMALL_GRID grid
    # over (zeta, log kappa) and makes POINTS_PER_SWEEP point requests per
    # sweep, at a Latin hypercube of (zeta, kappa) pairs and uniform x.  A
    # sweep costs about as much as 16 point requests on this box (0.059 s
    # against 0.004 s at seed), so the point path, where per-call overhead
    # costs more than the kernel, and the swept grids each take about half
    # the time, and the median request is a point request.  The grid gives
    # the kappa < 0.03, zeta >= 2 stratum its share of the box (about 14%),
    # and its cell of largest zeta and smallest kappa lies inside that
    # stratum, so every block sweeps it.
    points = SMALL_GRID ** 2 * POINTS_PER_SWEEP
    sweep_z = [_kronecker(rng) for _ in range(SMALL_GRID)]
    sweep_k = [_kronecker(rng) for _ in range(SMALL_GRID)]
    for point_z, point_k in zip(_offsets(rng, points), _offsets(rng, points)):
        kappas = _cells(point_k, *KAPPA_SMALL, log=True)
        pairing = rng.sample(range(points), points)
        block = [_profile(zeta, kappas[j], x=rng.uniform(-4.0, 4.0))
                 for zeta, j in zip(_cells(point_z, *ZETA_SMALL), pairing)]
        block += _grid_sweeps(ZETA_SMALL, KAPPA_SMALL, sweep_z, sweep_k)
        rng.shuffle(block)
        yield block


def cascaded_sweep(rng):
    for c in _offsets(rng, 4):
        block = [Request("sweep", ("cascaded", "sweep", "--chi", repr(chi), *DRIVE_FLAGS, "--plot"),
                         DRIVE_GRID, plot=True)
                 for chi in _cells(c, 0.3, 3.0, log=True)]
        rng.shuffle(block)
        yield block


def spectrum_request(drive, chi=None, omega_flags=OMEGA_FLAGS, grid=OMEGA_GRID):
    extra = () if chi is None else ("--chi", repr(chi))
    return Request("spectrum", ("cascaded", "spectrum", "--drive", repr(drive), *extra, *omega_flags), grid)


def cascaded_spectrum(rng):
    # the lowest branch is stable over the whole drive range at the defaults
    for d in _offsets(rng, 4):
        block = [spectrum_request(drive) for drive in _cells(d, 1e5, 1e6, log=True)]
        rng.shuffle(block)
        yield block


def decoupled_probe(drive):
    """A short spectrum with uncoupled cavities (chi = 0), whose degree is exactly 4."""
    return spectrum_request(drive, 0.0, PROBE_OMEGA_FLAGS, PROBE_OMEGA_GRID)


@dataclass(frozen=True)
class Workload:
    stream: object
    warmup: tuple      # one cheap untimed request that loads every code path
    tail_cap: float    # highest tail percentile reported; see run.tail_latency


WORKLOADS = {
    "profile_large": Workload(profile_large, ("single-cavity", "point", "--x", "0", "--zeta", "5"), 75.0),
    "profile_small": Workload(profile_small, ("single-cavity", "point", "--x", "0"), 99.0),
    "cascaded_sweep": Workload(cascaded_sweep, ("cascaded", "sweep", "--drive-count", "11", "--plot"), 55.0),
    "cascaded_spectrum": Workload(cascaded_spectrum, ("cascaded", "spectrum", "--omega-count", "11"), 70.0),
}


def blocks(name, seed):
    """The endless stream of request blocks of workload `name` for `seed`."""
    return WORKLOADS[name].stream(random.Random(f"{name}:{seed}"))
