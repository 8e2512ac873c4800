"""Structural relaxation by preconditioned L-BFGS.

Quasi-Newton descent (Liu & Nocedal, Math. Program. 45, 503 (1989)) over
the last ``_MEMORY`` steps.  The initial inverse Hessian is P^-1, built
once per call: P = sum_t k_t dq_t/dR dq_t/dR^T + mu I is the bonded
Gauss-Newton Hessian (bonded.harmonic_hessian) on the free components, a
force-field preconditioner as in Packwood et al., J. Chem. Phys. 144,
164109 (2016).  Cell components get P's mean diagonal.  Given the state
a structure was displaced from, the free components start from P's linear
response to the displacement of the fixed ones.

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


def _direction(g, h0, memory):
    """-H g by the L-BFGS two-loop recursion."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    r = h0 @ q
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
    p = _MU * np.eye(len(free))
    if model.topology is not None:
        p[:n3, :n3] += harmonic_hessian(structure, model.topology)
    if n3:  # without atoms, the cell components keep _MU
        np.fill_diagonal(p[n3:, n3:], p.diagonal()[:n3].mean())
    h0 = np.zeros_like(p)
    h0[np.ix_(free, free)] = np.linalg.inv(p[np.ix_(free, free)])
    evaluations = 0

    def evaluate(s):
        nonlocal evaluations
        evaluations += 1
        components, f = model.energy_and_forces(s)
        g = np.concatenate([-f.ravel(), _cell_gradient(s, model, relax_cell)]) * free
        return components, f, g

    cur = None
    if origin is not None:
        # h0 is P_ff^-1 on the free rows and 0 elsewhere
        d = np.where(free[:n3], 0.0, (structure.positions - origin.positions).ravel())
        shift = -(h0[:n3, :n3] @ (p[:n3, :n3] @ d))
        if shift.any():
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
