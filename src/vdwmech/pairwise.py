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
from scipy.special import expit

from .errors import InputError
from .periodic import ImageSet, paired_separations
from .species import VdwStates
from .structure import AtomicStructure
from .units import BOHR_ANGSTROM, HARTREE_EV

# no cutoff below this size unless one is configured
_AUTO_CUTOFF_NATOMS = 2000
_AUTO_CUTOFF_A = 40.0


@dataclass(frozen=True)
class PwModelConfig:
    """Damping steepness d, radius scaling gamma, optional cutoff [A]."""

    d: float = 20.0
    gamma: float = 0.94
    cutoff: float | None = None

    def __post_init__(self):
        if self.d <= 0 or self.gamma <= 0:
            raise InputError("damping parameters must be positive")
        if self.cutoff is not None and self.cutoff <= 0:
            raise InputError("cutoff must be positive")

    def effective_cutoff(self, n: int) -> float | None:
        if self.cutoff is not None:
            return self.cutoff
        return _AUTO_CUTOFF_A if n > _AUTO_CUTOFF_NATOMS else None


def fermi_damping(r, s_vdw, d):
    """Fermi-type damping 1 / (1 + exp(-d (r/s_vdw - 1))); in (0, 1)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InputError("distance must be non-negative")
    if not s_vdw > 0 or not d > 0:
        raise InputError("s_vdw and d must be positive")
    out = expit(d * (r / s_vdw - 1.0))
    return float(out) if out.ndim == 0 else out


def pw_energy(structure: AtomicStructure, states: VdwStates,
              cfg: PwModelConfig, images: ImageSet | None = None,
              forces: bool = False) -> tuple[float, np.ndarray | None]:
    """Pairwise dispersion energy [eV] and, with ``forces``, the analytic
    forces -dE/dR [eV/A], shape (N, 3), otherwise None.

    One pass over the home image and one image of each +-t pair, with
    (N, N) arrays per image; images extend the sum periodically, and pairs
    beyond the cutoff get zero weight.
    """
    n = len(structure)
    if n != len(states):
        raise InputError("one vdW state per atom required")
    if n < 2 and images is None:
        return 0.0, np.zeros((n, 3)) if forces else None
    c6, alpha, rv = states.c6_eff, states.alpha0_eff, states.rvdw_eff
    # the combination rule C6_ij = 2 C6_i C6_j / (a_j/a_i C6_i + a_i/a_j C6_j) for
    # all pairs, as 2 p_i p_j / (q_i + q_j), p = C6/alpha, q = p/alpha
    p = c6 / alpha
    c6ij = np.outer(p, 2.0 * p) / np.add.outer(p / alpha, p / alpha)
    d_over_s = (cfg.d / cfg.gamma) / np.add.outer(rv, rv)
    cutoff = cfg.effective_cutoff(n)
    e_ha = 0.0
    f_ha = np.zeros((3, n))
    for home, d, r2 in paired_separations(structure, images):
        r = np.sqrt(r2)
        damp = expit(d_over_s * r - cfg.d)
        e6 = c6ij / (r2 * r2 * r2)
        if cutoff is not None:
            e6[r > cutoff / BOHR_ANGSTROM] = 0.0
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
