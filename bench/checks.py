"""Output checks, run on each request's CSV outside the timed region.

A row fails, and is counted rather than aborting the run, when it breaks a
physical bound, disagrees with an oracle, is non-finite where it must be
finite, is `unresolvable`, or belongs to a request that exited non-zero.
A cascaded row on an unstable working point is a valid answer.  A request
whose document is missing or malformed (wrong header, wrong row count, a
grid that does not echo the request, no SVG where one was asked for) also
marks the run as not correct, because its rows could not be checked.
"""

import math
from collections import Counter

import numpy as np

PROFILE_HEADER = ["x", "prob_density", "lin_entropy", "efficiency"]
SWEEP_HEADER = ["drive", "branch", "intensity1", "intensity2", "e_degree", "stable"]
SPECTRUM_HEADER = ["omega", "s_qplus", "s_pminus", "commutator_im", "e_degree", "variance_product"]

# the brute-force purity oracle expands every label in the number basis,
# so it is only affordable while the largest label |2 N kappa| stays small
ORACLE_LABEL_MAX = 4.0
ORACLE_ROWS_PER_REQUEST = 2
ORACLE_TOLERANCE = 1e-6
# Upsilon = E * P is recomputed from 13-digit CSV cells
PRODUCT_RTOL = 1e-10
GRID_RTOL = 1e-12
DECOUPLED_DEGREE = 4.0


class Tally:
    """Rows attempted and failed, failure reasons and malformed documents."""

    def __init__(self, conditional, fock, oracle_rng):
        self.conditional = conditional
        self.fock = fock
        self.oracle_rng = oracle_rng
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.problems = []
        self.oracle_checked = 0

    def check(self, request, rc, csv_text, svg_text=None, probe_degree=None):
        """Check one request's output; returns the shape counts used as ratio bases."""
        grid = request.grid
        self.attempted += grid.size
        shape = Counter(rows=0)
        if rc != 0:
            self._fail_all(request, f"exit_{rc}", f"{request.argv[:2]} exited {rc}")
            return shape
        header, _, body = csv_text.partition("\n")
        rows = [line.split(",") for line in body.splitlines()]
        if request.plot and not (svg_text and svg_text.lstrip().startswith("<svg")
                                 and svg_text.rstrip().endswith("</svg>")):
            self._fail_all(request, "malformed", f"{request.argv[:2]}: missing or malformed SVG")
            return shape
        expected = {"profile": PROFILE_HEADER, "sweep": SWEEP_HEADER,
                    "spectrum": SPECTRUM_HEADER}[request.kind]
        columns = header.split(",")
        errored = request.kind == "profile" and columns == expected + ["error"]
        if (columns != expected and not errored) or len(rows) != grid.size \
                or any(len(row) != len(columns) for row in rows):
            self._fail_all(request, "malformed", f"{request.argv[:2]}: malformed CSV")
            return shape
        first = np.array([float(row[0]) for row in rows])
        if not np.allclose(first, grid, rtol=GRID_RTOL, atol=0.0):
            self._fail_all(request, "malformed", f"{request.argv[:2]}: grid column does not echo the request")
            return shape
        shape["rows"] = len(rows)
        if request.kind == "profile":
            self._profile_rows(request, rows, errored, shape)
        elif request.kind == "sweep":
            self._sweep_rows(rows, shape)
        else:
            self._spectrum_rows(rows, probe_degree, shape)
        return shape

    def _fail_all(self, request, reason, problem):
        self.failed += request.grid.size
        self.reasons[reason] += request.grid.size
        self.problems.append(problem)

    def _fail(self, reason):
        self.failed += 1
        self.reasons[reason] += 1

    def _profile_rows(self, request, rows, errored, shape):
        shape["outcomes"] = len(rows)
        oracle_rows = set(self.oracle_rng.sample(range(len(rows)), min(ORACLE_ROWS_PER_REQUEST, len(rows))))
        state = None
        for index, row in enumerate(rows):
            if errored and row[4]:
                self._fail("unresolvable")
                continue
            shape["resolved"] += 1
            x, p, e, y = (float(cell) for cell in row[:4])
            if not all(map(math.isfinite, (p, e, y))):
                self._fail("nonfinite")
            elif p < 0.0:
                self._fail("negative_density")
            elif not 0.0 <= e <= 1.0:
                self._fail("entropy_out_of_bounds")
            elif abs(y - e * p) > PRODUCT_RTOL * abs(e * p):
                self._fail("efficiency_not_product")
            elif index in oracle_rows:
                if state is None:
                    state = self.conditional.evolve(request.zeta, request.kappa, math.pi)
                if np.max(np.abs(state.labels)) <= ORACLE_LABEL_MAX and not self._oracle_agrees(state, x, p, e):
                    self._fail("oracle_disagrees")

    def _oracle_agrees(self, state, x, p, e):
        """P(x) and E(x) against an explicit partial trace in the number basis."""
        fock, conditional = self.fock, self.conditional
        largest = float(np.max(np.abs(state.labels)))
        dim = fock.truncation_order(largest, fock.TruncationPolicy(tail_epsilon=1e-11)) + 1
        psi = fock.oscillator_wavefunctions(state.n_max, np.array([x]))[:, 0]
        raw = state.coeffs * psi
        vecs = np.array([fock.coherent_in_fock(mu, dim) for mu in state.labels])
        norm_sq = float(np.sum(np.abs(np.einsum("n,ni,nj->ij", raw, vecs, vecs)) ** 2))
        if not norm_sq > 0.0:
            return p == 0.0
        self.oracle_checked += 1
        purity = conditional.purity_bruteforce(raw / math.sqrt(norm_sq), state.labels, dim)
        return (abs(p - norm_sq) <= ORACLE_TOLERANCE * norm_sq
                and abs(e - (1.0 - purity)) <= ORACLE_TOLERANCE)

    def _sweep_rows(self, rows, shape):
        shape["drives"] = len(rows)
        for row in rows:
            i1, i2, degree = float(row[2]), float(row[3]), float(row[4])
            if not (math.isfinite(i1) and math.isfinite(i2) and i1 >= 0.0 and i2 >= 0.0):
                self._fail("intensity_out_of_bounds")
            elif row[5] == "true":
                shape["spectral_points"] += 1
                if not (math.isfinite(degree) and degree > 0.0):
                    self._fail("stable_row_without_degree")
            elif row[5] != "false":
                self._fail("malformed_stable_flag")

    def _spectrum_rows(self, rows, probe_degree, shape):
        shape["drives"] = 1
        shape["spectral_points"] = len(rows)
        for row in rows:
            s_q, s_p, degree = float(row[1]), float(row[2]), float(row[4])
            if not all(math.isfinite(v) and v > 0.0 for v in (s_q, s_p, degree)):
                self._fail("spectrum_not_positive")
            elif probe_degree is not None and not math.isclose(degree, probe_degree, rel_tol=1e-9):
                self._fail("decoupled_limit_not_four")
