"""Molecular dynamics: Langevin dynamics by the BAOAB splitting.

One force evaluation per step.  With zero friction the O step leaves the
velocities unchanged and the step is exactly velocity Verlet (NVE).
Units: positions A, time fs, masses amu, energies eV.  Fixed structure
components are excluded from integration and from the kinetic
temperature.  The kick and noise coefficients are computed once per run,
and each step updates positions and velocities in place through
preallocated noise and scratch buffers: outside the force evaluation, a
step allocates only the positions copy that its frozen structure keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InputError, IntegrationError, check_count
from .structure import AtomicStructure
from .units import ACC_EV_A_AMU, KB_EV, KE_AMU_A2_FS2_EV


@dataclass(frozen=True)
class MdConfig:
    """Langevin run settings.  Every ``sample_interval``-th step is sampled,
    and the statistics average the samples after ``runup_steps``, so the
    last sampled step must come after the run-up."""

    timestep: float                 # fs
    temperature: float              # K
    total_steps: int
    friction: float = 0.01          # 1/fs; 0 gives NVE
    runup_steps: int = 0
    seed: int = 0
    sample_interval: int = 1

    def __post_init__(self):
        if not 0 < self.timestep < np.inf:
            raise InputError("timestep must be positive and finite")
        if not 0 <= self.temperature < np.inf:
            raise InputError("temperature must be finite and >= 0")
        if not 0 <= self.friction < np.inf:
            raise InputError("friction must be finite and >= 0")
        for name, low in (("total_steps", 1), ("runup_steps", 0), ("sample_interval", 1),
                          ("seed", 0)):
            check_count(name, getattr(self, name), low)
        last_sample = self.total_steps - self.total_steps % self.sample_interval
        if not last_sample > self.runup_steps:
            raise InputError(f"no step is sampled after the run-up: the last sample is "
                             f"step {last_sample}, runup_steps {self.runup_steps}")


@dataclass
class MdResult:
    """Final state plus production-phase statistics."""

    structure: AtomicStructure
    velocities: np.ndarray
    mean_displacement: np.ndarray    # (N, 3) time-averaged r - r_initial [A]
    std_displacement: np.ndarray     # (N, 3)
    mean_temperature: float          # K
    times: np.ndarray                # fs, sampled
    total_energies: np.ndarray       # eV, sampled
    temperatures: np.ndarray         # K, sampled
    seed: int


def _temperature(ke, n_dof):
    return 2.0 * ke / (KB_EV * n_dof) if n_dof else 0.0


def run_md(structure: AtomicStructure, model, cfg: MdConfig,
           velocities: np.ndarray | None = None) -> MdResult:
    """Integrate the equations of motion for cfg.total_steps.

    Without ``velocities``, free components start from Maxwell-Boltzmann
    velocities at cfg.temperature.  Statistics (displacement means/stds,
    mean temperature) cover the production phase, i.e. steps after
    cfg.runup_steps, sampled every cfg.sample_interval; MdConfig makes
    sure that phase holds at least one sample.
    """
    n = len(structure)
    if n == 0:
        raise InputError("cannot run MD on an empty structure")
    if velocities is not None:
        velocities = np.asarray(velocities, float)
        if velocities.shape != (n, 3) or not np.all(np.isfinite(velocities)):
            raise InputError(f"velocities must be a finite ({n}, 3) array")
    rng = np.random.default_rng(cfg.seed)
    free = structure.free_mask()
    # fixed components keep exactly zero velocity: their accelerations and
    # noise are multiplied by 0
    free_f = free.astype(float)
    n_dof = int(free.sum())
    masses = structure.masses[:, None]
    # thermal velocity per component [A/fs]
    v_std = np.sqrt(KB_EV * cfg.temperature * ACC_EV_A_AMU / structure.masses)[:, None]
    # kinetic energy per squared velocity component [eV fs^2 / A^2]
    half_m = np.repeat(0.5 * KE_AMU_A2_FS2_EV * masses, 3, axis=1)

    pos = structure.positions.copy()
    pos0 = structure.positions
    if velocities is not None:
        vel = np.where(free, velocities, 0.0)
    elif cfg.temperature > 0:
        vel = np.where(free, rng.standard_normal((n, 3)) * v_std, 0.0)
    else:
        vel = np.zeros((n, 3))

    (e_tot0, _, _), forces = model.energy_and_forces(structure)
    e_ref = e_tot0 + float(np.vdot(half_m, vel * vel))

    dt = cfg.timestep
    c1 = np.exp(-cfg.friction * dt)
    c2 = np.sqrt(max(0.0, 1.0 - c1 * c1))
    # velocity change of a half kick per unit force [A/fs per eV/A]
    kick = (0.5 * dt * ACC_EV_A_AMU) * free_f / masses
    noise_scale = c2 * v_std * free_f

    times, energies, temps, prod_temps = [], [], [], []
    disp_sum = np.zeros((n, 3))
    disp_sq = np.zeros((n, 3))
    # the steps update vel and pos in place through these two buffers
    noise = np.empty((n, 3))
    tmp = np.empty((n, 3))

    cur = structure
    for step in range(1, cfg.total_steps + 1):
        vel += np.multiply(kick, forces, out=tmp)
        pos += np.multiply(0.5 * dt, vel, out=tmp)
        vel *= c1
        vel += np.multiply(noise_scale, rng.standard_normal(out=noise), out=noise)
        pos += np.multiply(0.5 * dt, vel, out=tmp)
        # the structure keeps its own frozen copy; pos stays writable
        cur = cur.with_positions(pos, check_overlap=False)
        try:
            (e_pot, _, _), forces = model.energy_and_forces(cur)
        except GeometryError as e:
            raise IntegrationError(f"trajectory left the model's domain "
                                   f"at step {step}: {e}")
        vel += np.multiply(kick, forces, out=tmp)

        if step % cfg.sample_interval == 0:
            ke = float(np.vdot(half_m, np.multiply(vel, vel, out=tmp)))
            e_tot = e_pot + ke
            if not math.isfinite(e_tot) or abs(e_tot - e_ref) > 1e3 * (abs(e_ref) + 1.0):
                raise IntegrationError(
                    f"total energy diverged at step {step}: {e_tot:.3e} eV")
            times.append(step * dt)
            energies.append(e_tot)
            temps.append(_temperature(ke, n_dof))
            if step > cfg.runup_steps:
                prod_temps.append(temps[-1])
                disp_sum += np.subtract(pos, pos0, out=tmp)
                disp_sq += np.multiply(tmp, tmp, out=tmp)

    n_prod = len(prod_temps)
    mean_d = disp_sum / n_prod
    std_d = np.sqrt(np.maximum(disp_sq / n_prod - mean_d**2, 0.0))

    return MdResult(
        structure=cur,
        velocities=vel,
        mean_displacement=mean_d,
        std_displacement=std_d,
        mean_temperature=float(np.mean(prod_temps)),
        times=np.array(times),
        total_energies=np.array(energies),
        temperatures=np.array(temps),
        seed=cfg.seed,
    )
