"""cavmotion: radiation-pressure entangling of trapped-atom motion.

Two desk-scale simulators share the numerics in this package:

* a conditional scheme where two atoms in one cavity become entangled by
  measuring a field quadrature (`cavmotion.conditional`), and
* a cascaded scheme where the output of one atom-holding cavity drives a
  second, entangling the two motions in steady state
  (`cavmotion.cascade`, `cavmotion.spectra`).

`cavmotion.fock` holds the shared coherent-state/number-basis primitives,
and `cavmotion.cli` the command-line front end.
"""

from .cascade import (
    PhysParams,
    SteadyBranch,
    bistable_window,
    branch_label,
    cavity_bracket,
    intensity_roots,
    pulling_coefficients,
    residual,
    root_grid,
    steady_grid,
    steady_state,
)
from .conditional import (
    ConditionalResult,
    JointState,
    UnresolvableOutcomeError,
    condition_on_quadrature,
    efficiency_profile,
    evolve,
    joint_moments,
    label_factor,
    probability_density,
    purity_bruteforce,
)
from .fock import (
    TruncationPolicy,
    coherent_coefficient,
    coherent_in_fock,
    coherent_overlap,
    oscillator_wavefunction,
    oscillator_wavefunctions,
    truncation_order,
)
from .spectra import (
    GRID_BLOCK,
    NoiseModel,
    SingularTransferError,
    SpectrumPoint,
    SweepPoint,
    amplitude_sweep,
    build_drift,
    build_noise,
    cascade_blocks,
    classify_stability,
    correlation_matrix,
    epr_grid,
    epr_spectra,
    stability_stack,
    transfer,
    transfer_rows,
)

__version__ = "0.1.0"
