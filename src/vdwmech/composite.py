"""Composite energy model: bonded harmonic term plus one dispersion model.

The total energy follows the range-separation split E = E_bonded + E_vdW.
For periodic structures the model resolves a replica shell count once (by
per-cell energy convergence) and keeps it fixed, so forces stay smooth
along a loading path; the kernels take the shell count and build the
translations from the current cell at every evaluation.
"""

from __future__ import annotations

from . import bonded as _bonded
from . import mbd as _mbd
from . import pairwise as _pw
from .errors import InputError
from .mbd import MbdModelConfig
from .pairwise import PwModelConfig
from .species import states_for
from .structure import AtomicStructure

VDW_KINDS = ("none", "pw", "mbd")

_PW_SHELL_TOL_EV = 1e-7
_PW_MAX_SHELLS = 6


class CompositeModel:
    """Bonded + vdW energy model with a uniform evaluate interface."""

    def __init__(self, topology: _bonded.HarmonicTopology | None = None,
                 vdw: str = "none",
                 pw_cfg: PwModelConfig | None = None,
                 mbd_cfg: MbdModelConfig | None = None,
                 shells: int | None = None):
        if vdw not in VDW_KINDS:
            raise InputError(f"vdw must be one of {VDW_KINDS}, got {vdw!r}")
        if topology is None and vdw == "none":
            raise InputError("model needs a bonded term, a vdW term, or both")
        if shells is not None and not shells >= 0:
            raise InputError(f"shells must be >= 0, got {shells}")
        self.topology = topology
        self.vdw = vdw
        self.pw_cfg = pw_cfg or PwModelConfig()
        self.mbd_cfg = mbd_cfg or MbdModelConfig()
        self.shells = shells
        self._states_key = None
        self._states = None

    # -- vdW plumbing ------------------------------------------------------

    def _states_for(self, structure):
        key = (structure.species, structure.volume_ratios.tobytes())
        if key != self._states_key:
            self._states = states_for(structure)
            self._states_key = key
        return self._states

    def resolve_shells(self, structure: AtomicStructure) -> int:
        """Pick and pin the replica shell count by per-cell energy convergence."""
        if structure.cell is None or not structure.cell.periodic_axes():
            self.shells = 0
            return 0
        if self.vdw == "none":
            self.shells = 0
            return 0
        if self.vdw == "mbd":
            tol, max_shells = self.mbd_cfg.shell_energy_tol, self.mbd_cfg.replica_shells
        else:
            tol, max_shells = _PW_SHELL_TOL_EV, _PW_MAX_SHELLS
        prev = self._evaluate(structure, False, 0)[0][2]
        shells = 0
        for s in range(1, max_shells + 1):
            cur = self._evaluate(structure, False, s)[0][2]
            shells = s
            if abs(cur - prev) < tol:
                break
            prev = cur
        self.shells = shells
        return shells

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, structure, forces, shells=None):
        """((total, bonded, vdW), forces or None) in eV and eV/A.

        ``shells`` defaults to the model's pinned shell count, which the
        first periodic structure resolves (0 until then).
        """
        e_bond, f = 0.0, None
        if self.topology is not None:
            e_bond, f = _bonded.harmonic_energy(structure, self.topology, forces)
        e_vdw = 0.0
        if self.vdw != "none":
            kernel, cfg = ((_pw.pw_energy, self.pw_cfg) if self.vdw == "pw"
                           else (_mbd.mbd_energy, self.mbd_cfg))
            if shells is None:
                if (self.shells is None and structure.cell is not None
                        and structure.cell.periodic_axes()):
                    self.resolve_shells(structure)
                shells = self.shells or 0
            e_vdw, f_vdw = kernel(structure, self._states_for(structure), cfg, shells, forces)
            f = f_vdw if f is None else f + f_vdw
        return (e_bond + e_vdw, e_bond, e_vdw), f

    def energy_components(self, structure: AtomicStructure) -> tuple[float, float, float]:
        """(total, bonded, vdW) energies [eV]."""
        return self._evaluate(structure, False)[0]

    def energy(self, structure: AtomicStructure) -> float:
        return self._evaluate(structure, False)[0][0]

    def energy_and_forces(self, structure: AtomicStructure):
        """((total, bonded, vdW), forces) in eV and eV/A."""
        return self._evaluate(structure, True)
