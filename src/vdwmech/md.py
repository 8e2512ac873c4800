"""Molecular dynamics: Langevin dynamics by the BAOAB splitting.

One force evaluation per step.  With zero friction the O step leaves the
velocities unchanged and the step is exactly velocity Verlet (NVE).
Units: positions A, time fs, masses amu, energies eV.  Fixed structure
components are excluded from integration and from the kinetic
temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InputError, IntegrationError
from .structure import AtomicStructure
from .units import ACC_EV_A_AMU, KB_EV, KE_AMU_A2_FS2_EV


@dataclass(frozen=True)
class MdConfig:
    timestep: float                 # fs
    temperature: float              # K
    total_steps: int
    friction: float = 0.01          # 1/fs; 0 gives NVE
    runup_steps: int = 0
    seed: int = 0
    sample_interval: int = 1

    def __post_init__(self):
        if self.timestep <= 0:
            raise InputError("timestep must be positive")
        if self.temperature < 0:
            raise InputError("temperature must be >= 0")
        if not self.friction >= 0:
            raise InputError("friction must be >= 0")
        if self.total_steps < 1 or self.runup_steps < 0:
            raise InputError("bad step counts")
        if self.sample_interval < 1:
            raise InputError("sample_interval must be >= 1")


@dataclass
class MdResult:
    """Final state plus production-phase statistics."""

    structure: AtomicStructure
    velocities: np.ndarray
    mean_displacement: np.ndarray    # (N, 3) time-averaged r - r_initial [A]
    std_displacement: np.ndarray     # (N, 3)
    mean_fixed_reaction: np.ndarray  # (3,) time-averaged model force on fixed atoms [eV/A]
    mean_temperature: float          # K
    times: np.ndarray                # fs, sampled
    total_energies: np.ndarray       # eV, sampled
    temperatures: np.ndarray         # K, sampled
    seed: int


def maxwell_boltzmann_velocities(structure, temperature, rng):
    """Per-component thermal velocities [A/fs]; fixed components get zero."""
    n = len(structure)
    if temperature <= 0 or n == 0:
        return np.zeros((n, 3))
    std = np.sqrt(KB_EV * temperature * ACC_EV_A_AMU / structure.masses)
    v = rng.standard_normal((n, 3)) * std[:, None]
    return np.where(structure.free_mask(), v, 0.0)


def _temperature(ke, n_dof):
    return 2.0 * ke / (KB_EV * n_dof) if n_dof else 0.0


def run_md(structure: AtomicStructure, model, cfg: MdConfig,
           velocities: np.ndarray | None = None) -> MdResult:
    """Integrate the equations of motion for cfg.total_steps.

    Statistics (displacement means/stds, reaction on the fixed set, mean
    temperature) cover the production phase, i.e. steps after
    cfg.runup_steps, sampled every cfg.sample_interval.
    """
    n = len(structure)
    if n == 0:
        raise InputError("cannot run MD on an empty structure")
    rng = np.random.default_rng(cfg.seed)
    free = structure.free_mask()
    # fixed components keep exactly zero velocity: their accelerations and
    # noise are multiplied by 0
    free_f = free.astype(float)
    n_dof = int(free.sum())
    masses = structure.masses[:, None]

    pos = structure.positions.copy()
    pos0 = pos.copy()
    vel = maxwell_boltzmann_velocities(structure, cfg.temperature, rng) \
        if velocities is None else np.where(free, np.asarray(velocities, float), 0.0)

    (e_tot0, _, _), forces = model.energy_and_forces(structure)
    e_ref = e_tot0 + 0.5 * KE_AMU_A2_FS2_EV * float(np.sum(masses * vel**2))

    dt = cfg.timestep
    c1 = np.exp(-cfg.friction * dt)
    c2 = np.sqrt(max(0.0, 1.0 - c1 * c1))
    v_std = np.sqrt(KB_EV * cfg.temperature * ACC_EV_A_AMU / structure.masses)[:, None]
    noise_scale = c2 * v_std * free_f

    fixed_any = structure.fixed.any(axis=1)

    times, energies, temps = [], [], []
    disp_sum = np.zeros((n, 3))
    disp_sq = np.zeros((n, 3))
    react_sum = np.zeros(3)
    n_prod = 0

    def accel(f):
        return ACC_EV_A_AMU * f / masses * free_f

    cur = structure
    a = accel(forces)
    for step in range(1, cfg.total_steps + 1):
        vel = vel + 0.5 * dt * a
        pos = pos + 0.5 * dt * vel
        vel = c1 * vel + noise_scale * rng.standard_normal((n, 3))
        pos = pos + 0.5 * dt * vel
        cur = cur.with_positions(pos, check_overlap=False)
        try:
            (e_pot, _, _), forces = model.energy_and_forces(cur)
        except GeometryError as e:
            raise IntegrationError(f"trajectory left the model's domain "
                                   f"at step {step}: {e}")
        a = accel(forces)
        vel = vel + 0.5 * dt * a

        if step % cfg.sample_interval == 0:
            ke = 0.5 * KE_AMU_A2_FS2_EV * float(np.sum(masses * vel**2))
            e_tot = e_pot + ke
            if not np.isfinite(e_tot) or abs(e_tot - e_ref) > 1e3 * (abs(e_ref) + 1.0):
                raise IntegrationError(
                    f"total energy diverged at step {step}: {e_tot:.3e} eV")
            times.append(step * dt)
            energies.append(e_tot)
            temps.append(_temperature(ke, n_dof))
            if step > cfg.runup_steps:
                d = pos - pos0
                disp_sum += d
                disp_sq += d * d
                react_sum += forces[fixed_any].sum(axis=0) if fixed_any.any() else 0.0
                n_prod += 1

    if n_prod:
        mean_d = disp_sum / n_prod
        var = np.maximum(disp_sq / n_prod - mean_d**2, 0.0)
        std_d = np.sqrt(var)
        react = react_sum / n_prod
    else:
        mean_d = np.zeros((n, 3))
        std_d = np.zeros((n, 3))
        react = np.zeros(3)

    prod_temps = [t for tm, t in zip(times, temps) if tm > cfg.runup_steps * dt]
    return MdResult(
        structure=cur,
        velocities=vel,
        mean_displacement=mean_d,
        std_displacement=std_d,
        mean_fixed_reaction=react,
        mean_temperature=float(np.mean(prod_temps)) if prod_temps else 0.0,
        times=np.array(times),
        total_energies=np.array(energies),
        temperatures=np.array(temps),
        seed=cfg.seed,
    )
