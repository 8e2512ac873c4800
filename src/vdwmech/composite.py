"""Composite energy model: bonded harmonic term plus one dispersion model.

The total energy follows the range-separation split E = E_bonded + E_vdW.
A periodic structure needs a replica shell count, passed as ``shells`` or
fixed by ``resolve_shells`` on the input structure (an InputError if
neither); ``resolve_shells`` returns its cap unevaluated, so an error at
the cap appears at the first evaluation.  The count stays fixed, so
forces stay smooth along a loading
path; the kernels build the translations from the current cell.  Only
this module decides how far the dispersion sums reach, by the shell
tolerances and caps below; the kernels drop no pair within the shells.
"""

from __future__ import annotations

from . import bonded as _bonded
from . import mbd as _mbd
from . import pairwise as _pw
from .errors import InputError, check_count
from .mbd import MbdModelConfig
from .pairwise import PwModelConfig
from .species import states_for
from .structure import AtomicStructure

VDW_KINDS = ("none", "pw", "mbd")

_PW_SHELL_TOL_EV = 1e-7
_PW_MAX_SHELLS = 6
_MBD_SHELL_TOL_EV = 1e-5


def _periodic(structure) -> bool:
    return structure.cell is not None and bool(structure.cell.periodic_axes())


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
        if shells is not None:
            check_count("shells", shells)
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

    def _vdw_term(self):
        """(kernel, config, shell energy tolerance [eV], shell cap) of the
        vdW term."""
        if self.vdw == "pw":
            return _pw.pw_energy, self.pw_cfg, _PW_SHELL_TOL_EV, _PW_MAX_SHELLS
        cfg = self.mbd_cfg
        return _mbd.mbd_energy, cfg, _MBD_SHELL_TOL_EV, cfg.replica_shells

    def resolve_shells(self, structure: AtomicStructure) -> int:
        """Pick and pin the replica shell count: the fewest shells s for
        which going from s - 1 to s shells changes the per-cell vdW energy
        by less than the term's tolerance, else the cap; 0 for an open
        structure or a model without vdW.

        The cap is returned without being evaluated, since no energy at it
        changes the answer, so an error that only the cap's shell count
        raises appears at the model's first evaluation instead.
        """
        shells = 0
        if self.vdw != "none" and _periodic(structure):
            kernel, cfg, tol, shells = self._vdw_term()
            if shells >= 2:
                states = self._states_for(structure)
                prev = kernel(structure, states, cfg, 0)[0]
                for s in range(1, shells):
                    cur = kernel(structure, states, cfg, s)[0]
                    if abs(cur - prev) < tol:
                        shells = s
                        break
                    prev = cur
        self.shells = shells
        return shells

    def pair_curvature(self, structure: AtomicStructure):
        """The MBD pair curvature that the relaxation preconditioner adds to
        the bonded one, by one rule: mbd.pair_curvature's transverse
        curvature of every pair-image within the pinned shells and radial
        curvature at every bond of the model's topology.  Its band blocks
        widen to hold every pair-image: 36 rows on the 28+28 chain pair and
        240 on the (8,8)x20 tube (27 and 192 bonded only).  None without a
        topology, or unless vdw is "mbd": the TS pairwise term is damped to
        a negligible curvature at bonded distances."""
        if self.vdw != "mbd" or self.topology is None:
            return None
        topo = self.topology
        _bonded._check_indices(structure, topo)
        return _mbd.pair_curvature(structure, self._states_for(structure), self.mbd_cfg,
                                   topo.bonds, topo.bond_offsets[:, 1] - topo.bond_offsets[:, 0],
                                   self.shells or 0)

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, structure, forces):
        """((total, bonded, vdW), forces or None) in eV and eV/A."""
        if self.vdw != "none" and self.shells is None and _periodic(structure):
            raise InputError("periodic structure without a replica shell count: "
                             "call resolve_shells(structure) or pass shells=n")
        e_bond, f = 0.0, None
        if self.topology is not None:
            e_bond, f = _bonded.harmonic_energy(structure, self.topology, forces)
        e_vdw = 0.0
        if self.vdw != "none":
            kernel, cfg, _, _ = self._vdw_term()
            e_vdw, f_vdw = kernel(structure, self._states_for(structure), cfg,
                                  self.shells or 0, forces)
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
