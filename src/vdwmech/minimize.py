"""Structural relaxation by preconditioned L-BFGS.

Quasi-Newton descent (Liu & Nocedal, Math. Program. 45, 503 (1989)) over
the last ``_MEMORY`` steps.  The initial inverse Hessian is P^-1, built
once per call: P = sum_t k_t dq_t/dR dq_t/dR^T + mu I is the bonded
Gauss-Newton Hessian (bonded.harmonic_hessian) on the free components, a
force-field preconditioner as in Packwood et al., J. Chem. Phys. 144,
164109 (2016).  Cell components get P's mean atomic diagonal.  Given the
state a structure was displaced from, the free components start from P's
linear response to the displacement of the fixed ones.

Bonded terms couple only nearby atoms, so with the atoms ranked along the
structure's longest extent P is block tridiagonal, in blocks of the
widest term's span and at least bonded._MIN_BLOCK rows (192 rows on an
(8,8) tube, 27 on the 28+28 chain pair).  Fixed components become
identity rows of the band, and a block Cholesky factors it (Golub & Van
Loan, Matrix Computations, 4th ed., sections 4.3 and 4.5) into the
inverse of each diagonal factor block and the factor blocks below them,
so each solve is block products.  The factor overwrites the band,
2 * 3N * b doubles: 12 MB on a 1280-atom tube, where one dense P took
118 MB.  A periodic cell whose bonds wrap is one block of (3N)^2, as
dense, and costs what a dense inverse does.

Trial steps move no atom more than _MAX_STEP.  A trial that raises
the energy, or that the geometry or the model refuses, is rejected and
the step along the same direction halved, so accepted energies never
increase.  Once halving leaves no trial step longer than _STEP_FLOOR,
the relaxation stops unconverged.  Relaxed cell components take their
gradients from central finite differences of the total energy under the
affine cell remap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .bonded import harmonic_hessian
from .errors import GeometryError, InputError, InstabilityError, check_count
from .periodic import apply_cell_strain
from .structure import AtomicStructure

_MEMORY = 10        # L-BFGS step pairs kept
_MU = 0.05          # eV/A^2, stiffness of directions no bonded term reaches
_CELL_FD_STEP = 1e-3  # A
_STEP_FLOOR = 1e-9    # A, shortest trial step worth evaluating
_MAX_STEP = 0.20      # A, displacement cap per trial step


@dataclass(frozen=True)
class MinimizerConfig:
    """``force_tolerance`` [eV/A] bounds every free force component and,
    in a cell relaxation, every relaxed cell gradient dE/dh_ab [eV/A] as
    well.  So a converged cell relaxation leaves a stress of up to about
    tolerance * h / V, which scales with the cell: PE 1x1x1, bonded only,
    stretched 0.02 A along x and relaxed in h_xx, keeps sigma_xx =
    1.4e-3 GPa at 1e-3 eV/A and 1.7e-5 GPa at 1e-4 eV/A (cell_stress)."""

    force_tolerance: float = 1e-3   # eV/A on free components and cell gradients
    max_iterations: int = 5000      # trial steps

    def __post_init__(self):
        if not 0 < self.force_tolerance < np.inf:
            raise InputError("force_tolerance must be positive and finite")
        check_count("max_iterations", self.max_iterations)


@dataclass
class MinimizeResult:
    """``iterations`` counts trial steps, accepted or rejected, and
    ``evaluations`` the model's energy-and-forces calls, the start (and a
    refused predicted start) included.
    ``components`` and ``forces`` are model.energy_and_forces(structure):
    (total, bonded, vdW) [eV] and the forces on all atoms, fixed ones too."""

    structure: AtomicStructure
    converged: bool
    iterations: int
    max_force: float
    energy: float
    energy_trace: list = None  # accepted-step energies, non-increasing
    evaluations: int = 0
    rejected: int = 0
    components: tuple = None
    forces: np.ndarray = None


def _cell_gradient(structure, model, components):
    g = np.zeros(len(components))
    for n, comp in enumerate(components):
        ep = model.energy(apply_cell_strain(structure, comp, delta=_CELL_FD_STEP))
        em = model.energy(apply_cell_strain(structure, comp, delta=-_CELL_FD_STEP))
        g[n] = (ep - em) / (2.0 * _CELL_FD_STEP)
    return g


def _longest(step, n3):
    """Largest atomic displacement or cell-component change of a step [A]."""
    return np.concatenate([np.linalg.norm(step[:n3].reshape(-1, 3), axis=1),
                           np.abs(step[n3:])]).max(initial=0.0)


def _factor(diag, low):
    """Block Cholesky L L^T of the symmetric positive definite block-
    tridiagonal matrix with diagonal blocks ``diag`` (K, b, b) and blocks
    ``low`` (K - 1, b, b) below them, in place: diag[k] becomes L_kk^-1
    and low[k] L_(k+1)k.  numpy has no triangular solve, so the solves
    run on the inverse diagonal blocks as products."""
    for k in range(len(diag)):
        if k:
            low[k - 1] = low[k - 1] @ diag[k - 1].T
            diag[k] -= low[k - 1] @ low[k - 1].T
        diag[k] = np.linalg.inv(np.linalg.cholesky(diag[k]))


def _solve(diag, low, r):
    """(L L^T)^-1 r for the _factor blocks, r (K, b), in place."""
    r[0] = diag[0] @ r[0]
    for k in range(1, len(r)):
        r[k] = diag[k] @ (r[k] - low[k - 1] @ r[k - 1])
    r[-1] = diag[-1].T @ r[-1]
    for k in range(len(r) - 2, -1, -1):
        r[k] = diag[k].T @ (r[k] - low[k].T @ r[k + 1])
    return r


def _preconditioner(structure, topology, free, origin):
    """The initial inverse Hessian as a function h0(q) of a gradient q over
    the atomic components, then the cell ones, and the bonded response
    -P_ff^-1 P_fd d of the free atomic components to the displacement d
    from ``origin`` of the fixed ones (None without origin or topology).
    ``free`` masks the atomic components."""
    n3 = len(free)
    if topology is None or not n3:
        return (lambda q: q / _MU), None
    rows, band = harmonic_hessian(structure, topology)
    k, _, b, _ = band.shape
    diag, low = band[:, 0], band[:-1, 1]
    cell = _MU + np.trace(diag, axis1=1, axis2=2).sum() / n3

    def solve(x):
        r = np.zeros(k * b)
        r[rows] = x
        return _solve(diag, low, r.reshape(k, b)).reshape(-1)[rows]

    shift = None
    if origin is not None:
        d = np.zeros(k * b)
        d[rows] = np.where(free, 0.0, (structure.positions - origin.positions).ravel())
        d = d.reshape(k, b)
        pd = np.einsum("kij,kj->ki", diag, d)  # P d, from the band
        pd[1:] += np.einsum("kij,kj->ki", low, d[:-1])
        pd[:-1] += np.einsum("kji,kj->ki", low, d[1:])
        shift = pd.reshape(-1)[rows] * free
    # fixed components and padding become identity rows, uncoupled
    keep = np.zeros(k * b, bool)
    keep[rows] = free
    keep = keep.reshape(k, b)
    diag *= keep[:, :, None] & keep[:, None, :]
    low *= keep[1:, :, None] & keep[:-1, None, :]
    diag[:, np.arange(b), np.arange(b)] += np.where(keep, _MU, 1.0)
    _factor(diag, low)
    if shift is not None:
        shift = -solve(shift)
    return (lambda q: np.concatenate([solve(q[:n3]), q[n3:] / cell])), shift


def _direction(g, h0, memory):
    """-H g by the L-BFGS two-loop recursion."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    r = h0(q)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        r += (a - rho * (y @ r)) * s
    return -r


def minimize(structure: AtomicStructure, model, cfg: MinimizerConfig,
             relax_cell: tuple[tuple[int, int], ...] = (),
             origin: AtomicStructure | None = None) -> MinimizeResult:
    """Relax free atomic components (and optionally cell components) until
    the largest force falls below the tolerance.

    The tolerance applies to the cell gradients dE/dh_ab as well, so the
    stress left in a relaxed cell scales with h / V (see MinimizerConfig).

    ``origin`` is the relaxed state that ``structure`` was displaced from.
    The free components then start from the bonded linear response to the
    displacement d of the fixed ones, -P_ff^-1 P_fd d with the
    preconditioner P; it is zero without a topology.  A start the model
    refuses falls back to ``structure`` itself.

    Returns converged=False when the trial-step budget runs out or no
    trial step longer than _STEP_FLOOR lowers the energy; the best state
    reached so far is still returned.
    """
    relax_cell = tuple(relax_cell)
    n3 = 3 * len(structure)
    # the atomic components, then the cell ones; fixed components stay 0
    free = np.concatenate([structure.free_mask().ravel(), np.ones(len(relax_cell), bool)])
    h0, shift = _preconditioner(structure, model.topology, free[:n3], origin)
    evaluations = 0

    def evaluate(s):
        nonlocal evaluations
        evaluations += 1
        components, f = model.energy_and_forces(s)
        g = np.concatenate([-f.ravel(), _cell_gradient(s, model, relax_cell)]) * free
        return components, f, g

    cur = None
    if shift is not None and shift.any():
        try:
            cur = structure.with_positions(structure.positions + shift.reshape(-1, 3),
                                           check_overlap=False)
            components, forces, g = evaluate(cur)
        except (GeometryError, InstabilityError):
            cur = None
    if cur is None:
        cur = structure
        components, forces, g = evaluate(cur)
    trace = [components[0]]
    memory = deque(maxlen=_MEMORY)  # (s, y, 1 / y.s)
    iterations = rejected = 0
    step = None
    while np.abs(g).max(initial=0.0) > cfg.force_tolerance \
            and iterations < cfg.max_iterations:
        if step is None:
            step = _direction(g, h0, memory)
            step *= min(1.0, _MAX_STEP / _longest(step, n3))
        iterations += 1
        try:
            # overlapping atoms, an inverted cell or a region the model
            # refuses to evaluate reject the trial like an uphill one
            trial = cur.with_positions(cur.positions + step[:n3].reshape(-1, 3),
                                       check_overlap=False)
            for comp, delta in zip(relax_cell, step[n3:]):
                trial = apply_cell_strain(trial, comp, delta=float(delta))
            t_components, t_forces, t_g = evaluate(trial)
            uphill = t_components[0] > components[0] + 1e-12 * (1.0 + abs(components[0]))
        except (GeometryError, InstabilityError):
            uphill = True
        if uphill:
            rejected += 1
            step = 0.5 * step
            if _longest(step, n3) <= _STEP_FLOOR:
                break
            continue
        y = t_g - g
        if step @ y > 0:
            memory.append((step, y, 1.0 / (step @ y)))
        cur, components, forces, g = trial, t_components, t_forces, t_g
        trace.append(components[0])
        step = None

    max_f = float(np.abs(g).max(initial=0.0))
    return MinimizeResult(cur, max_f <= cfg.force_tolerance, iterations, max_f,
                          components[0], trace, evaluations, rejected,
                          components, forces)
