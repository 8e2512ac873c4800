"""Pairwise Tkatchenko-Scheffler dispersion energy and analytic forces.

The energy is an additive sum over atom pairs (and periodic images),

    E = - sum_{pairs} f_damp(R) * C6_ij / R^6,

with a Fermi-type damping switched on the scaled sum of effective vdW
radii.  Every image runs on the home image's pair list
``VdwStates.home_pairs`` (i < j, each once) and its separations
d0 = R_i - R_j.  A translated image t stands for -t too and holds every
ordered pair: (i, j) at d0 - t, (j, i) at -(d0 + t) and each atom with
its own image at |t|, in one buffer and one kernel call per image.  Both
pairs of a column act on atoms i and j as the home pair does, so one
force scatter serves all images, and no (N, N) array is formed.
VdwStates builds the list on first use and keeps it, so a run that
reuses one VdwStates (as CompositeModel does across MD and relaxation
steps) builds it once.  All internal math is in Hartree atomic units;
energies come back in eV and forces in eV/A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_count
from .periodic import guard_overlap, lattice_translations
from .species import VdwStates
from .structure import OVERLAP_GUARD, AtomicStructure
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
    ``shells`` cells along the periodic axes (see lattice_translations);
    every pair of those images enters.
    """
    check_count("shells", shells)
    n = len(structure)
    if n != len(states):
        raise InputError("one vdW state per atom required")
    if n == 0 or (n == 1 and shells == 0):
        return 0.0, np.zeros((n, 3)) if forces else None
    i3, j3, c6, rvdw, row_start = states.home_pairs
    p = i3.shape[1]
    pref = cfg.d / cfg.gamma
    d_over_s = pref / rvdw[:p]
    x = structure.positions.ravel() / BOHR_ANGSTROM
    d = x.take(i3)  # d0 = R_i - R_j [Bohr], (3, P)
    d -= x.take(j3)
    r2 = np.einsum("kp,kp->p", d, d)
    guard2 = (OVERLAP_GUARD / BOHR_ANGSTROM) ** 2
    if r2.min(initial=guard2) < guard2:
        guard_overlap(structure, shells)
    e_ha, w = _pair_terms(r2, c6[:p], d_over_s, cfg.d, forces)
    g = None
    if shells and structure.cell is not None:
        # columns: (i, j) at d0 - t, (j, i) at -(d0 + t), each atom's own image
        trans = lattice_translations(structure.cell, shells)[1][1:]
        c6 = np.concatenate([c6[:p], c6])
        d_over_s = np.concatenate([d_over_s, d_over_s, pref / rvdw[p:]])
        img = np.empty((3, 2 * p + n))
        g = np.zeros((3, p)) if forces else None
        for t in trans[:, :, None]:
            np.subtract(d, t, out=img[:, :p])
            np.add(d, t, out=img[:, p:2 * p])
            img[:, 2 * p:] = t
            r2 = np.einsum("kp,kp->p", img, img)
            if r2.min() < guard2:
                guard_overlap(structure, shells)
            e_img, w_img = _pair_terms(r2, c6, d_over_s, cfg.d, forces)
            e_ha += e_img
            if forces:  # an atom's own image exerts no force
                img[:, :2 * p] *= w_img[:2 * p]
                g += img[:, :p]
                g += img[:, p:2 * p]
    f_ha = None
    if forces:
        # +w d on each atom j, by one bincount over 3 j + c, and -w d on
        # each atom i, summed over its row of pairs
        d *= w
        if g is not None:
            d += g
        # (with no pairs, bincount returns integers)
        f_ha = np.bincount(j3.ravel(), weights=d.ravel(),
                           minlength=3 * n).reshape(n, 3).astype(float, copy=False)
        f_ha[:-1] -= np.add.reduceat(d, row_start, axis=1).T
    return (float(e_ha) * HARTREE_EV,
            f_ha * (HARTREE_EV / BOHR_ANGSTROM) if forces else None)
