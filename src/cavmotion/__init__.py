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
    branch_labels,
    cavity_bracket,
    pulling_coefficients,
    residual,
    root_grid,
    steady_grid,
)
from .conditional import (
    ConditionalResult,
    JointState,
    condition_on_quadrature,
    efficiency_profile,
    evolve,
    label_factor,
    outcome_moments,
    purity_bruteforce,
)
from .fock import (
    TruncationPolicy,
    coherent_coefficient,
    coherent_in_fock,
    coherent_overlap,
    oscillator_wavefunctions,
    truncation_order,
)
from .spectra import (
    SingularTransferError,
    SpectrumPoint,
    SweepPoint,
    amplitude_sweep,
    build_noise,
    correlation_matrix,
    epr_grid,
    stability_grid,
    stage_blocks,
    transfer_rows,
)

__version__ = "0.1.0"
