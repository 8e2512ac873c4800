"""The benchmark's four workloads on the paper's geometries.

Each workload has a set-up (generation, topology, model build and, for
periodic cells, replica-shell resolution), a solution unit that the
runner repeats in a closed loop, and a correctness check of each unit's
outputs against a stored reference.  Everything goes through the public
calls the CLI makes.  Unit 0 of a run always uses the unperturbed input,
so its outputs can be checked tightly; later units draw their inputs
from the run's seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import vdwmech as vm
from vdwmech.generators import cap_indices

_now = time.perf_counter

PERTURBATION = 0.01        # A, seeded displacement of free atoms
NET_FORCE_TOL = 1e-6       # eV/A, |sum of forces| of an isolated or periodic system
ENERGY_TOL = 1e-6          # eV, energy of the fixed input, and e+f vs energy-only
FORCE_NORM_RTOL = 1e-6
# Central differences with strain step 1e-5 are off the exact derivative by
# far less than 1e-6 GPa here, so an analytic virial also meets 1e-3 GPa.
STRESS_TOL = 1e-3          # GPa
STRESS_SYM_TOL = 1e-9      # GPa
STRAIN_SCALE = 1e-3        # std of the seeded small-strain components
STRESS_BAND = 2.0          # GPa, a seeded small strain moves sigma by < 1 GPa
PERTURBED_ENERGY_BAND = (-1.0, 10.0)  # eV vs the reference; 0.01 A costs ~5 eV of bonds
LOAD_FTOL = 1e-3           # eV/A, relaxation force tolerance
REACTION_TOL = 5e-3        # eV/A, reactions across seeds spread ~1e-3
LOAD_ENERGY_TOL = 1e-4     # eV
MD_TEMPERATURE = 300.0     # K
MD_SEGMENT = 100           # steps per unit; a run continues one trajectory
MD_RUNUP_SEGMENTS = 2      # left out of the mean temperature
MD_CHECK_SEGMENTS = 5      # production segments before the mean is checked
MD_TEMPERATURE_BAND = 60.0  # K


@dataclass(frozen=True)
class Size:
    """Problem size of one workload: the paper geometry or a tiny test copy."""

    cnt: tuple[int, int, int] = (8, 8, 20)    # (n, m, rings)
    pe: tuple[int, int, int] = (2, 2, 2)
    pe_shells: int = 2
    chain: int = 28                            # carbons per chain
    load_steps: int = 5


FULL = Size()
TINY = Size(cnt=(4, 4, 3), pe=(1, 1, 1), pe_shells=1, chain=6, load_steps=2)


@dataclass(frozen=True)
class Workload:
    name: str
    unit_label: str
    setup: Callable[[Size], dict]
    unit: Callable[[dict, int, np.random.Generator], dict]
    check: Callable[[dict, dict], list]
    reference: Callable[[Size], dict]


def _perturbed(structure, rng):
    noise = PERTURBATION * rng.standard_normal(structure.positions.shape)
    return structure.with_positions(
        structure.positions + np.where(structure.free_mask(), noise, 0.0))


def _strained(structure, eps):
    """Apply the homogeneous strain ``eps`` to the cell and the atoms."""
    f = np.eye(3) + eps
    cell = vm.CellTensor(structure.cell.matrix @ f.T, structure.cell.periodic)
    return structure.with_positions(structure.positions @ f.T).with_cell(cell)


def _net_force(forces):
    return float(np.abs(forces.sum(axis=0)).max())


# -- swcnt-mbd: the large-N dense MBD kernel ------------------------------

def _swcnt_setup(size):
    n, m, rings = size.cnt
    s = vm.make_swcnt(vm.CntSpec(n, m, rings), fixed_end_layers=1)
    model = vm.CompositeModel(topology=vm.detect_topology(s), vdw="mbd")
    return {"structure": s, "model": model, "shells": 0, "shells_at_cap": 0}


def _swcnt_unit(state, k, rng):
    s = state["structure"] if k == 0 else _perturbed(state["structure"], rng)
    model = state["model"]
    (energy, _, _), forces = model.energy_and_forces(s)
    t0 = _now()
    energy_only = model.energy(s)
    return {"fixed_input": k == 0, "energy": energy, "energy_only": energy_only,
            "force_norm": float(np.linalg.norm(forces)),
            "net_force": _net_force(forces), "energy_eval_s": _now() - t0}


def _swcnt_check(out, ref):
    bad = []
    if abs(out["energy"] - out["energy_only"]) > ENERGY_TOL:
        bad.append(f"e+f energy {out['energy']} != energy-only {out['energy_only']}")
    if out["net_force"] > NET_FORCE_TOL:
        bad.append(f"net force {out['net_force']:.3e} eV/A")
    shift = out["energy"] - ref["energy"]
    if out["fixed_input"]:
        if abs(shift) > ENERGY_TOL:
            bad.append(f"energy {out['energy']} != reference {ref['energy']}")
        if abs(out["force_norm"] - ref["force_norm"]) > FORCE_NORM_RTOL * ref["force_norm"]:
            bad.append(f"force norm {out['force_norm']} != reference {ref['force_norm']}")
    elif not PERTURBED_ENERGY_BAND[0] <= shift <= PERTURBED_ENERGY_BAND[1]:
        bad.append(f"perturbed energy {shift:+.3f} eV off the reference")
    return bad


def _swcnt_reference(size):
    out = _swcnt_unit(_swcnt_setup(size), 0, None)
    return {"energy": out["energy"], "force_norm": out["force_norm"]}


# -- pe-mbd-stress: many periodic images, finite-difference stress --------

def _pe_setup(size):
    s = vm.make_pe_crystal(vm.PeCrystalSpec(*size.pe))
    model = vm.CompositeModel(topology=vm.detect_topology(s), vdw="mbd",
                              mbd_cfg=vm.MbdModelConfig(replica_shells=size.pe_shells))
    shells = model.resolve_shells(s)
    return {"structure": s, "model": model, "shells": shells,
            "shells_at_cap": int(shells == size.pe_shells)}


def _pe_unit(state, k, rng):
    s = state["structure"]
    if k:
        eps = STRAIN_SCALE * rng.standard_normal((3, 3))
        s = _strained(s, 0.5 * (eps + eps.T))
    model = state["model"]
    (energy, _, _), forces = model.energy_and_forces(s)
    t0 = _now()
    sigma = vm.cell_stress(s, model.energy).sigma
    return {"fixed_input": k == 0, "energy": energy, "net_force": _net_force(forces),
            "sigma": sigma, "stress_s": _now() - t0}


def _pe_check(out, ref):
    bad = []
    sigma, ref_sigma = out["sigma"], np.asarray(ref["sigma"])
    if out["net_force"] > NET_FORCE_TOL:
        bad.append(f"net force {out['net_force']:.3e} eV/A")
    if not np.all(np.isfinite(sigma)) or np.abs(sigma - sigma.T).max() > STRESS_SYM_TOL:
        bad.append("stress is not finite and symmetric")
    dev = float(np.abs(sigma - ref_sigma).max())
    if out["fixed_input"]:
        if abs(out["energy"] - ref["energy"]) > ENERGY_TOL:
            bad.append(f"energy {out['energy']} != reference {ref['energy']}")
        if dev > STRESS_TOL:
            bad.append(f"stress differs from the reference by {dev:.3e} GPa")
    elif dev > STRESS_BAND:
        bad.append(f"strained stress differs from the reference by {dev:.3f} GPa")
    return bad


def _pe_reference(size):
    out = _pe_unit(_pe_setup(size), 0, None)
    return {"energy": out["energy"], "sigma": out["sigma"].tolist()}


# -- chain-mbd-load: small MBD calls inside the minimizer and the driver ---

def _chain(size):
    spec = vm.ChainSpec(size.chain, size.chain, hydrogen_caps=True)
    return vm.make_chain_pair(spec), cap_indices(spec)[1]


def _load_setup(size):
    s, upper_caps = _chain(size)
    model = vm.CompositeModel(topology=vm.detect_topology(s), vdw="mbd")
    return {"structure": s, "model": model, "shells": 0, "shells_at_cap": 0,
            "upper_caps": tuple(int(i) for i in upper_caps),
            "steps": size.load_steps, "step": 0, "current": s}


def _load_unit(state, k, rng):
    """One load step: drive the upper caps by -0.2 A along y and relax.

    A path of ``steps`` steps starts from the generated pair with a seeded
    perturbation (none in unit 0), then each step continues from the last.
    """
    step = state["step"]
    state["step"] = 0  # a step that raises restarts the path
    start = state["structure"] if step == 0 else state["current"]
    protocol = vm.LoadingProtocol(
        kind="displacement", increment=-0.2, step_count=1,
        minimizer=vm.MinimizerConfig(force_tolerance=LOAD_FTOL),
        driven=state["upper_caps"], axis=1,
        perturbation=PERTURBATION if step == 0 and k else 0.0,
        perturbation_seed=int(rng.integers(2**31)), record_structures=False)
    result = vm.run_quasistatic(start, state["model"], protocol)
    state["current"] = result.final
    state["step"] = (step + 1) % state["steps"]
    rec = result.records[0]
    return {"step": step, "converged": rec.converged and not result.halted,
            "reaction": rec.reaction, "energy": rec.e_total}


def _load_check(out, ref):
    bad = []
    j = out["step"]
    if not out["converged"]:
        bad.append(f"load step {j + 1} did not converge")
    if abs(out["reaction"] - ref["reaction"][j]) > REACTION_TOL:
        bad.append(f"step {j + 1} reaction {out['reaction']} != reference {ref['reaction'][j]}")
    if abs(out["energy"] - ref["energy"][j]) > LOAD_ENERGY_TOL:
        bad.append(f"step {j + 1} energy {out['energy']} != reference {ref['energy'][j]}")
    return bad


def _load_reference(size):
    state = _load_setup(size)
    rng = np.random.default_rng(0)
    outs = [_load_unit(state, k, rng) for k in range(size.load_steps)]
    return {"reaction": [o["reaction"] for o in outs], "energy": [o["energy"] for o in outs]}


# -- chain-pw-md: pairwise and bonded terms inside the integrator ---------

def _md_setup(size):
    s, _ = _chain(size)
    model = vm.CompositeModel(topology=vm.detect_topology(s), vdw="pw")
    return {"structure": s, "model": model, "shells": 0, "shells_at_cap": 0,
            "current": None, "velocities": None, "temperatures": []}


def _md_unit(state, k, rng):
    """One segment of MD_SEGMENT Langevin steps, continuing the trajectory.

    The first segment starts from the generated pair with Maxwell-Boltzmann
    velocities; each later one from where the last one ended.
    """
    start, velocities = state["current"], state["velocities"]
    state["current"] = None  # a segment that raises restarts the trajectory
    if start is None:
        start, velocities, state["temperatures"] = state["structure"], None, []
    cfg = vm.MdConfig(timestep=1.0, temperature=MD_TEMPERATURE, total_steps=MD_SEGMENT,
                      seed=int(rng.integers(2**31)))
    result = vm.run_md(start, state["model"], cfg, velocities=velocities)
    state["current"], state["velocities"] = result.structure, result.velocities
    state["temperatures"].append(result.mean_temperature)
    production = state["temperatures"][MD_RUNUP_SEGMENTS:]
    return {"md_steps": cfg.total_steps,
            "finite": bool(np.all(np.isfinite(result.total_energies))),
            "temperature": (float(np.mean(production))
                            if len(production) >= MD_CHECK_SEGMENTS else None)}


def _md_check(out, ref):
    bad = []
    if not out["finite"]:
        bad.append("non-finite total energy")
    t = out["temperature"]
    if t is not None and abs(t - ref["temperature"]) > MD_TEMPERATURE_BAND:
        bad.append(f"mean temperature {t:.1f} K outside "
                   f"{ref['temperature']} +- {MD_TEMPERATURE_BAND} K")
    return bad


def _md_reference(size):
    return {"temperature": MD_TEMPERATURE}


WORKLOADS = {w.name: w for w in (
    Workload("swcnt-mbd", "geometry (e+f, then energy only)",
             _swcnt_setup, _swcnt_unit, _swcnt_check, _swcnt_reference),
    Workload("pe-mbd-stress", "strain state (e+f, then cell_stress)",
             _pe_setup, _pe_unit, _pe_check, _pe_reference),
    Workload("chain-mbd-load", "load step (displace, relax)",
             _load_setup, _load_unit, _load_check, _load_reference),
    Workload("chain-pw-md", f"MD segment ({MD_SEGMENT} Langevin steps at 300 K)",
             _md_setup, _md_unit, _md_check, _md_reference),
)}
