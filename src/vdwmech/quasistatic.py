"""Quasi-static loading: incremental displacement or cell strain, each step
followed by relaxation, with reactions and stiffness recorded.

State carries over between steps, so path dependence (snap-in/out
hysteresis, post-buckling branches) is preserved.  A non-converged step
first retries with halved increments, at most _MAX_HALVINGS times; if
that budget is exhausted the run halts with the failing record flagged.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_count
from .minimize import MinimizerConfig, minimize
from .periodic import apply_cell_strain, cell_stress, check_component, relaxable_components
from .structure import AtomicStructure
from .units import EV_A3_GPA

_INCREMENT_FLOOR = 1e-15  # remainders of a step this small are dropped
_MAX_HALVINGS = 4         # increment halvings per step before the run halts


@dataclass(frozen=True)
class LoadingProtocol:
    """Driver description for one quasi-static run.

    kind "displacement": rigidly translate the (fully fixed) driven atoms
    by ``increment`` along ``axis`` each step.  kind "cell-strain": change
    cell component ``component`` by ``increment``; "relaxed-others" mode
    adds the remaining periodic cell components to the relaxation.  A step
    whose relaxation does not converge is retried with the increment
    halved, up to _MAX_HALVINGS times.
    """

    kind: str                                  # displacement | cell-strain
    increment: float                           # A per step
    step_count: int
    minimizer: MinimizerConfig = MinimizerConfig()
    driven: tuple[int, ...] = ()               # displacement mode
    axis: int = 2
    component: tuple[int, int] = (0, 0)        # cell-strain mode
    cell_mode: str = "fixed-others"
    reference_length: float | None = None      # strain normalization [A]
    face_area: float | None = None             # A^2, reaction stress
    compute_stress: bool = False               # cell-strain, 3-D periodic cell
    perturbation: float = 0.0                  # A, seeded one-time noise
    perturbation_seed: int = 0
    record_structures: bool = True

    def __post_init__(self):
        if self.kind not in ("displacement", "cell-strain"):
            raise InputError(f"unknown protocol kind {self.kind!r}")
        if not _INCREMENT_FLOOR < abs(self.increment) < np.inf:
            raise InputError(f"increment must be finite and exceed {_INCREMENT_FLOOR} "
                             "in magnitude")
        check_count("step_count", self.step_count, 1)
        if self.kind == "displacement" and not len(self.driven):
            raise InputError("displacement protocol needs a driven selection")
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool)
                   for i in self.driven):
            raise InputError(f"driven atom indices must be integers, got {tuple(self.driven)!r}")
        if len(set(self.driven)) != len(self.driven):
            raise InputError(f"driven atom indices repeat: {tuple(self.driven)}")
        if self.axis not in range(3):
            raise InputError(f"axis must be 0, 1 or 2, got {self.axis!r}")
        check_component(self.component)
        if not 0 <= self.perturbation < np.inf:
            raise InputError(f"perturbation must be finite and >= 0, got {self.perturbation}")
        check_count("perturbation_seed", self.perturbation_seed)
        if self.cell_mode not in ("fixed-others", "relaxed-others"):
            raise InputError(f"unknown cell mode {self.cell_mode!r}")
        if self.face_area is not None and not 0 < self.face_area < np.inf:
            raise InputError("face_area must be positive and finite")
        if self.reference_length is not None and not 0 < self.reference_length < np.inf:
            raise InputError("reference_length must be positive and finite")


@dataclass
class StepRecord:
    """Per-step observables of a quasi-static run."""

    step: int
    applied: float                 # cumulative driven displacement or cell change [A]
    strain: float | None
    e_total: float                 # eV
    e_bonded: float
    e_vdw: float
    reaction: float | None         # eV/A along the drive axis, displacement mode
    sigma: np.ndarray | None       # (3,3) GPa, periodic runs
    sigma_drive: float | None      # GPa
    stiffness: float | None        # GPa, from step 2 on
    converged: bool
    evaluations: int               # energy-and-forces calls of its relaxations, retries too
    iterations: int                # trial steps of its relaxations, retries too
    rejected: int                  # trial steps of those that were rejected
    halvings: int                  # increment halvings


@dataclass
class QuasistaticResult:
    records: list[StepRecord]
    structures: list[AtomicStructure] = field(default_factory=list)
    final: AtomicStructure | None = None
    halted: bool = False


def _perturb(structure, protocol):
    if protocol.perturbation == 0:
        return structure
    rng = np.random.default_rng(protocol.perturbation_seed)
    noise = protocol.perturbation * rng.standard_normal(structure.positions.shape)
    noise = np.where(structure.free_mask(), noise, 0.0)
    return structure.with_positions(structure.positions + noise)


def _apply_displacement(structure, protocol, amount):
    pos = structure.positions.copy()
    pos[np.asarray(protocol.driven, int), protocol.axis] += amount
    return structure.with_positions(pos)


def run_quasistatic(structure: AtomicStructure, model,
                    protocol: LoadingProtocol) -> QuasistaticResult:
    """Run the loading protocol; one StepRecord per protocol step.

    Every displacement step and halved sub-step passes the relaxed state it
    displaced to ``minimize`` as ``origin``, so its relaxation starts from
    the bonded linear response to the increment.
    """
    if protocol.kind == "displacement":
        driven = np.asarray(protocol.driven)
        if not np.all((driven >= 0) & (driven < len(structure))):
            raise InputError(f"driven atom indices must lie in 0..{len(structure) - 1}")
        if not structure.fixed[driven].all():
            raise InputError("driven atoms must be fully fixed")
    if protocol.kind == "cell-strain":
        if structure.cell is None:
            raise InputError("cell-strain protocol needs a periodic structure")
        if protocol.compute_stress and not all(structure.cell.periodic):
            raise InputError("compute_stress requires a fully periodic cell")

    relax_cell = ()
    if protocol.kind == "cell-strain" and protocol.cell_mode == "relaxed-others":
        relax_cell = tuple(relaxable_components(structure.cell, protocol.component))

    cur = _perturb(structure, protocol)
    if protocol.kind == "cell-strain":
        # engineering strain: the change of the driven component over the
        # initial length of its cell row
        u0 = float(np.linalg.norm(structure.cell.matrix[protocol.component[0]]))
    result = QuasistaticResult(records=[])
    applied = 0.0
    prev_sig = prev_eps = None

    for step in range(1, protocol.step_count + 1):
        remaining = protocol.increment
        sub = protocol.increment
        halvings = evaluations = iterations = rejected = 0
        converged = True
        while abs(remaining) > _INCREMENT_FLOOR:
            if abs(sub) > abs(remaining):
                sub = remaining
            if protocol.kind == "displacement":
                trial, origin = _apply_displacement(cur, protocol, sub), cur
            else:
                trial, origin = apply_cell_strain(cur, protocol.component, sub), None
            res = minimize(trial, model, protocol.minimizer, relax_cell=relax_cell,
                           origin=origin)
            evaluations += res.evaluations
            iterations += res.iterations
            rejected += res.rejected
            if res.converged:
                cur = res.structure
                applied += sub
                remaining -= sub
                continue
            if halvings == _MAX_HALVINGS:
                cur = res.structure
                applied += sub
                converged = False
                break
            halvings += 1
            sub *= 0.5

        # res holds the last relaxation, whose final state is cur
        (e_tot, e_bond, e_vdw), forces = res.components, res.forces

        reaction = None
        sigma = None
        sigma_drive = None
        strain = None
        if protocol.kind == "displacement":
            driven = np.asarray(protocol.driven, int)
            reaction = float(forces[driven, protocol.axis].sum())
            if protocol.reference_length:
                strain = abs(applied) / protocol.reference_length
            if protocol.face_area:
                sigma_drive = abs(reaction) / protocol.face_area * EV_A3_GPA
        else:
            strain = applied / u0
            if protocol.compute_stress:
                sigma = cell_stress(cur, model.energy).sigma
                a, b = protocol.component
                sigma_drive = float(sigma[a, b])

        stiffness = None
        if sigma_drive is not None and strain is not None:
            if prev_sig is not None and strain != prev_eps:
                stiffness = (sigma_drive - prev_sig) / (strain - prev_eps)
            prev_sig, prev_eps = sigma_drive, strain

        result.records.append(StepRecord(
            step=step, applied=applied, strain=strain, e_total=e_tot,
            e_bonded=e_bond, e_vdw=e_vdw, reaction=reaction, sigma=sigma,
            sigma_drive=sigma_drive, stiffness=stiffness, converged=converged,
            evaluations=evaluations, iterations=iterations, rejected=rejected,
            halvings=halvings))
        if protocol.record_structures:
            result.structures.append(cur)
        if not converged:
            result.halted = True
            break

    result.final = cur
    return result
