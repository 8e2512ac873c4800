"""Pairwise Tkatchenko-Scheffler dispersion energy and analytic forces.

The energy is an additive sum over atom pairs (and periodic images),

    E = - sum_{pairs} f_damp(R) * C6_ij / R^6,

with a Fermi-type damping switched on the scaled sum of effective vdW
radii.  All internal math is in Hartree atomic units; energies come back
in eV and forces in eV/A.
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
    """Damping steepness d, radius scaling gamma, optional cutoff [A]."""

    d: float = 20.0
    gamma: float = 0.94
    cutoff: float | None = None

    def __post_init__(self):
        if not (0 < self.d < np.inf and 0 < self.gamma < np.inf):
            raise InputError("damping parameters must be positive and finite")
        if self.cutoff is not None and not 0 < self.cutoff < np.inf:
            raise InputError("cutoff must be positive and finite")


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
    (N, N) arrays per image; pairs beyond ``cfg.cutoff`` get zero weight.
    """
    n = len(structure)
    if n != len(states):
        raise InputError("one vdW state per atom required")
    if n == 0 or (n == 1 and shells == 0):
        return 0.0, np.zeros((n, 3)) if forces else None
    c6, alpha, rv = states.c6_eff, states.alpha0_eff, states.rvdw_eff
    # the combination rule C6_ij = 2 C6_i C6_j / (a_j/a_i C6_i + a_i/a_j C6_j) for
    # all pairs, as 2 p_i p_j / (q_i + q_j), p = C6/alpha, q = p/alpha
    p = c6 / alpha
    c6ij = np.outer(p, 2.0 * p) / np.add.outer(p / alpha, p / alpha)
    d_over_s = (cfg.d / cfg.gamma) / np.add.outer(rv, rv)
    e_ha = 0.0
    f_ha = np.zeros((3, n))
    for home, d, r2 in paired_separations(structure, shells):
        r = np.sqrt(r2)
        damp = _damping(d_over_s * r, cfg.d)
        e6 = c6ij / (r2 * r2 * r2)
        if cfg.cutoff is not None:
            e6[r > cfg.cutoff / BOHR_ANGSTROM] = 0.0
        # the home image holds each pair twice
        e_ha -= (0.5 if home else 1.0) * np.vdot(damp, e6)
        if forces:
            # with w = e'(R) / R for e(R) = -f C6 / R^6, the force on atom i
            # is the column sum minus the row sum of w d; in the home image
            # the two are equal and opposite and the pairs are there twice
            wd = (e6 * (6.0 * damp / r - damp * (1.0 - damp) * d_over_s) / r) * d
            f_ha -= wd.sum(axis=2)
            if not home:
                f_ha += wd.sum(axis=1)
    return (float(e_ha) * HARTREE_EV,
            f_ha.T * (HARTREE_EV / BOHR_ANGSTROM) if forces else None)
