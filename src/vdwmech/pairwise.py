"""Pairwise Tkatchenko-Scheffler dispersion energy and analytic forces.

The energy is an additive sum over atom pairs (and periodic images),

    E = - sum_{pairs} f_damp(R) * C6_ij / R^6,

with a Fermi-type damping switched on the scaled sum of effective vdW
radii.  The home image runs over its pairs i < j, each once, from the
pair list ``VdwStates.home_pairs``.  Each translated image within the
shell count runs over the (N, N) separations of
periodic.paired_separations and the (N, N) tables ``c6_pairs`` and
``rvdw_pairs``; paired_separations takes no parameter to leave the home
image out, so on a periodic cell it still yields that image first, and
this module skips it.  One kernel body serves both shapes.  VdwStates
builds the tables and the pair list on first use and keeps them, so a
run that reuses one VdwStates (as CompositeModel does across MD and
relaxation steps) builds them once.  All internal math is in Hartree atomic units;
energies come back in eV and forces in eV/A.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InputError
from .periodic import pair_separations, paired_separations
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


def _pair_terms(r2, c6, d_over_s, d, forces):
    """Energy sum [Ha] of the pair terms e(R) = -f C6 / R^6 at the squared
    distances ``r2`` (any shape, matching ``c6`` and ``d_over_s`` = d/s
    per pair) and, with ``forces``, w = e'(R) / R per pair, else None."""
    r = np.sqrt(r2)
    damp = _damping(d_over_s * r, d)
    # R^6 overflows beyond ~1e51 A; inf gives the exact limit 0
    with np.errstate(over="ignore"):
        e6 = r2 * r2
        e6 *= r2
    np.divide(c6, e6, out=e6)
    e_ha = -np.vdot(damp, e6)
    if not forces:
        return e_ha, None
    # w = e6 f (6 / R - (1 - f) d/s) / R
    w = 1.0 - damp
    w *= d_over_s
    np.subtract(6.0 / r, w, out=w)
    w *= damp
    w *= e6
    w /= r
    return e_ha, w


def pw_energy(structure: AtomicStructure, states: VdwStates,
              cfg: PwModelConfig, shells: int = 0,
              forces: bool = False) -> tuple[float, np.ndarray | None]:
    """Pairwise dispersion energy [eV] and, with ``forces``, the analytic
    forces -dE/dR [eV/A], shape (N, 3), otherwise None.

    The home image's pairs, then one image of each +-t pair within
    ``shells`` cells along the periodic axes (see paired_separations); every
    pair of those images enters.
    """
    n = len(structure)
    if n != len(states):
        raise InputError("one vdW state per atom required")
    if n == 0 or (n == 1 and shells == 0):
        return 0.0, np.zeros((n, 3)) if forces else None
    pref = cfg.d / cfg.gamma
    i3, j3, c6, rvdw, row_start = states.home_pairs
    d, r2 = pair_separations(structure, i3, j3)
    e_ha, w = _pair_terms(r2, c6, pref / rvdw, cfg.d, forces)
    f_ha = None
    if forces:
        # +w d on each atom j, by one bincount over 3 j + c, and -w d on
        # each atom i, summed over its row of pairs
        d *= w
        # (with no pairs, bincount returns integers)
        f_ha = np.bincount(j3.ravel(), weights=d.ravel(),
                           minlength=3 * n).reshape(n, 3).astype(float, copy=False)
        f_ha[:-1] -= np.add.reduceat(d, row_start, axis=1).T
    if shells and structure.cell is not None:
        d_over_s = pref / states.rvdw_pairs
        # a paired image stands for both of its members
        for _, d, r2 in islice(paired_separations(structure, shells), 1, None):
            e_img, w = _pair_terms(r2, states.c6_pairs, d_over_s, cfg.d, forces)
            e_ha += e_img
            if forces:
                f_ha -= np.einsum("ij,kij->ik", w, d)
                f_ha += np.einsum("ij,kij->jk", w, d)
    return (float(e_ha) * HARTREE_EV,
            f_ha * (HARTREE_EV / BOHR_ANGSTROM) if forces else None)
