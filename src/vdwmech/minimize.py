"""Structural relaxation with a FIRE-style descent.

Velocity-projection dynamics with adaptive time step, a hard cap on the
per-iteration displacement, and an energy guard: any trial move that
raises the energy is rejected and restarts the inertia, so accepted
iterations are strictly non-increasing in energy.

Optionally a set of cell components joins the optimization; their
gradients come from central finite differences of the total energy under
the affine cell remap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InputError, InstabilityError
from .periodic import apply_cell_strain
from .structure import AtomicStructure

# unit-mass dynamics: the stability limit for the stiffest bond mode
# (k ~ 70 eV/A^2) is dt ~ 0.24, so the ceiling stays below it
_DT0 = 0.02
_DT_MAX = 0.15
_N_MIN = 5
_F_INC = 1.1
_F_DEC = 0.5
_ALPHA0 = 0.1
_F_ALPHA = 0.99
_CELL_FD_STEP = 1e-3  # A


@dataclass(frozen=True)
class MinimizerConfig:
    force_tolerance: float = 1e-3   # eV/A on free components
    max_iterations: int = 5000
    initial_step: float = 0.20      # A, displacement cap per iteration

    def __post_init__(self):
        if self.force_tolerance <= 0:
            raise InputError("force_tolerance must be positive")
        if self.initial_step <= 0:
            raise InputError("initial_step must be positive")


@dataclass
class MinimizeResult:
    structure: AtomicStructure
    converged: bool
    iterations: int
    max_force: float
    energy: float
    energy_trace: list = None  # accepted-step energies, non-increasing


def _cell_gradient(structure, model, components):
    g = np.zeros(len(components))
    for n, comp in enumerate(components):
        ep = model.energy(apply_cell_strain(structure, comp, delta=_CELL_FD_STEP))
        em = model.energy(apply_cell_strain(structure, comp, delta=-_CELL_FD_STEP))
        g[n] = (ep - em) / (2.0 * _CELL_FD_STEP)
    return g


def minimize(structure: AtomicStructure, model, cfg: MinimizerConfig,
             relax_cell: tuple[tuple[int, int], ...] = ()) -> MinimizeResult:
    """Relax free atomic components (and optionally cell components) until
    the largest force falls below the tolerance.

    Returns converged=False when the iteration budget runs out; the best
    state reached so far is still returned.
    """
    free = structure.free_mask()
    relax_cell = tuple(relax_cell)

    def evaluate(s):
        (e_tot, _, _), f = model.energy_and_forces(s)
        f = np.where(free, f, 0.0)
        fc = -_cell_gradient(s, model, relax_cell) if relax_cell else np.zeros(0)
        return e_tot, f, fc

    cur = structure
    energy, f_at, f_cell = evaluate(cur)
    trace = [energy]
    max_f = _max_force(f_at, f_cell)
    if max_f <= cfg.force_tolerance:
        return MinimizeResult(cur, True, 0, max_f, energy, trace)

    v_at = np.zeros_like(f_at)
    v_cell = np.zeros_like(f_cell)
    dt = _DT0
    alpha = _ALPHA0
    n_up = 0
    cap = cfg.initial_step

    for it in range(1, cfg.max_iterations + 1):
        v_at += dt * f_at
        v_cell += dt * f_cell
        p = float(np.sum(v_at * f_at) + np.sum(v_cell * f_cell))
        vnorm = np.sqrt(np.sum(v_at**2) + np.sum(v_cell**2))
        fnorm = np.sqrt(np.sum(f_at**2) + np.sum(f_cell**2))
        if fnorm > 0:
            mix = alpha * vnorm / fnorm
            v_at = (1.0 - alpha) * v_at + mix * f_at
            v_cell = (1.0 - alpha) * v_cell + mix * f_cell
        if p > 0:
            n_up += 1
            if n_up > _N_MIN:
                dt = min(dt * _F_INC, _DT_MAX)
                alpha *= _F_ALPHA
        else:
            n_up = 0
            dt *= _F_DEC
            alpha = _ALPHA0
            v_at[:] = 0.0
            v_cell[:] = 0.0
            continue

        dr = dt * v_at
        step = np.linalg.norm(dr, axis=1).max() if len(dr) else 0.0
        dc = dt * v_cell
        if len(dc):
            step = max(step, np.abs(dc).max())
        if step > cap:
            scale = cap / step
            dr *= scale
            dc *= scale

        try:
            trial = cur.with_positions(cur.positions + dr, check_overlap=False)
            for comp, delta in zip(relax_cell, dc):
                trial = apply_cell_strain(trial, comp, delta=float(delta))
            e_new, f_at_new, f_cell_new = evaluate(trial)
        except (GeometryError, InstabilityError):
            # overshot into overlapping atoms, an inverted cell or a region
            # the model refuses to evaluate
            e_new = np.inf
        if e_new > energy + 1e-12 * (1.0 + abs(energy)):
            # uphill: reject, restart inertia with a smaller step
            v_at[:] = 0.0
            v_cell[:] = 0.0
            dt = max(dt * _F_DEC, 1e-4)
            alpha = _ALPHA0
            n_up = 0
            continue
        cur, energy, f_at, f_cell = trial, e_new, f_at_new, f_cell_new
        trace.append(energy)
        max_f = _max_force(f_at, f_cell)
        if max_f <= cfg.force_tolerance:
            return MinimizeResult(cur, True, it, max_f, energy, trace)

    return MinimizeResult(cur, False, cfg.max_iterations, max_f, energy, trace)


def _max_force(f_at, f_cell):
    m = float(np.abs(f_at).max()) if f_at.size else 0.0
    if f_cell.size:
        m = max(m, float(np.abs(f_cell).max()))
    return m
