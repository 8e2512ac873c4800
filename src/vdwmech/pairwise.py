"""Pairwise Tkatchenko-Scheffler dispersion energy and analytic forces.

The energy is an additive sum over atom pairs (and periodic images),

    E = - sum_{pairs} f_damp(R) * C6_ij / R^6,

with a Fermi-type damping switched on the scaled sum of effective vdW
radii.  The combined C6_ij and the radius sums R_vdW,i + R_vdW,j are
(N, N) tables that VdwStates builds on first use and keeps, so a run that
reuses one VdwStates (as CompositeModel does across MD and relaxation
steps) builds them once.  All internal math is in Hartree atomic units;
energies come back in eV and forces in eV/A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .periodic import paired_separations
from .species import VdwStates
from .structure import AtomicStructure
from .units import BOHR_ANGSTROM, HARTREE_EV


@dataclass(frozen=True)
class PwModelConfig:
    """Damping steepness d and radius scaling gamma.  No pair is dropped:
    the replica shell count alone sets how far the sum reaches."""

    d: float = 20.0
    gamma: float = 0.94

    def __post_init__(self):
        if not (0 < self.d < np.inf and 0 < self.gamma < np.inf):
            raise InputError("damping parameters must be positive and finite")


def _damping(x, d):
    """The Fermi damping 1 / (1 + exp(d - x)) of x = (d/s) R, in place on x.
    Where exp overflows, inf gives the exact limit 0, without a warning."""
    np.subtract(d, x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def pw_energy(structure: AtomicStructure, states: VdwStates,
              cfg: PwModelConfig, shells: int = 0,
              forces: bool = False) -> tuple[float, np.ndarray | None]:
    """Pairwise dispersion energy [eV] and, with ``forces``, the analytic
    forces -dE/dR [eV/A], shape (N, 3), otherwise None.

    One pass over the home image and one image of each +-t pair within
    ``shells`` cells along the periodic axes (see paired_separations), with
    (N, N) arrays per image; every pair of those images enters.
    """
    n = len(structure)
    if n != len(states):
        raise InputError("one vdW state per atom required")
    if n == 0 or (n == 1 and shells == 0):
        return 0.0, np.zeros((n, 3)) if forces else None
    d_over_s = (cfg.d / cfg.gamma) / states.rvdw_pairs
    e_ha = 0.0
    f_ha = np.zeros((3, n))
    for offset, d, r2 in paired_separations(structure, shells):
        home = not offset.any()
        r = np.sqrt(r2)
        damp = _damping(d_over_s * r, cfg.d)
        # R^6 overflows beyond ~1e51 A; inf gives the exact limit 0
        with np.errstate(over="ignore"):
            e6 = r2 * r2
            e6 *= r2
        np.divide(states.c6_pairs, e6, out=e6)
        # the home image holds each pair twice
        e_ha -= (0.5 if home else 1.0) * np.vdot(damp, e6)
        if forces:
            # with w = e'(R) / R = e6 f (6 / R - (1 - f) d/s) / R for
            # e(R) = -f C6 / R^6, the force on atom i is the column sum minus
            # the row sum of w d; in the home image the two are equal and
            # opposite and the pairs are there twice
            w = 1.0 - damp
            w *= d_over_s
            np.subtract(6.0 / r, w, out=w)
            w *= damp
            w *= e6
            w /= r
            f_ha -= np.einsum("ij,kij->ki", w, d)
            if not home:
                f_ha += np.einsum("ij,kij->kj", w, d)
    return (float(e_ha) * HARTREE_EV,
            f_ha.T * (HARTREE_EV / BOHR_ANGSTROM) if forces else None)
