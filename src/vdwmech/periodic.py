"""Lattice images, cell deformation, and numerical cell stress."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InputError
from .structure import AtomicStructure, CellTensor
from .units import EV_A3_GPA


@dataclass(frozen=True)
class ImageSet:
    """Cartesian lattice translations, one per periodic image.

    Contains the zero translation exactly once and is closed under
    negation.  ``shell_index`` is the Chebyshev shell of each translation.
    """

    translations: np.ndarray   # (M, 3) [A]
    shell_index: np.ndarray    # (M,) int

    def __len__(self):
        return len(self.translations)

    def half_set(self) -> np.ndarray:
        """Indices of one translation from each +-t pair, home image excluded.

        A translation is kept when its first nonzero Cartesian component is
        positive.  Negation flips that sign exactly, so each pair is picked
        once.
        """
        t = self.translations
        lead = t[np.arange(len(t)), np.argmax(t != 0.0, axis=1)]
        half = np.flatnonzero(lead > 0.0)
        if 2 * len(half) + 1 != len(t):
            raise InputError("image set is not closed under negation")
        return half


def generate_images(cell: CellTensor | None, shells: int) -> ImageSet:
    """All integer lattice combinations with max |index| <= shells along
    periodic directions."""
    if shells < 0:
        raise InputError(f"shells must be >= 0, got {shells}")
    if cell is None:
        return ImageSet(np.zeros((1, 3)), np.zeros(1, dtype=int))
    ranges = [range(-shells, shells + 1) if p else range(0, 1) for p in cell.periodic]
    idx = np.array(sorted(product(*ranges), key=lambda t: (max(abs(c) for c in t), t)))
    trans = idx @ cell.matrix
    shell = np.max(np.abs(idx), axis=1)
    return ImageSet(trans.astype(float), shell.astype(int))


@dataclass(frozen=True)
class StressTensor:
    """Symmetric Cauchy stress [GPa] with its principal decomposition."""

    sigma: np.ndarray             # (3, 3) GPa
    principal_values: np.ndarray  # descending
    principal_axes: np.ndarray    # columns are principal directions

    @classmethod
    def from_matrix(cls, sigma: np.ndarray) -> "StressTensor":
        sigma = np.asarray(sigma, dtype=float)
        sym = 0.5 * (sigma + sigma.T)
        vals, vecs = np.linalg.eigh(sym)
        order = np.argsort(vals)[::-1]
        return cls(sym, vals[order], vecs[:, order])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.sigma))


def apply_deformation(structure: AtomicStructure, gradient: np.ndarray) -> AtomicStructure:
    """Apply a homogeneous deformation gradient F to cell and positions."""
    F = np.asarray(gradient, dtype=float)
    pos = structure.positions @ F.T
    cell = structure.cell
    if cell is not None:
        cell = CellTensor(cell.matrix @ F.T, cell.periodic)
    return structure.with_positions(pos).with_cell(cell)


def apply_cell_strain(structure: AtomicStructure, component: tuple[int, int],
                      delta: float | None = None, fraction: float | None = None,
                      mode: str = "fixed-others") -> AtomicStructure:
    """Change one cell component, remapping atoms affinely.

    ``delta`` is an absolute change [A]; ``fraction`` a relative one.
    Fractional atomic coordinates are preserved.  ``mode`` is recorded by
    the loading drivers; it does not alter the returned structure.
    """
    if structure.cell is None:
        raise InputError("structure has no cell to strain")
    if mode not in ("fixed-others", "relaxed-others"):
        raise InputError(f"unknown strain mode {mode!r}")
    a, b = component
    if not structure.cell.periodic[a]:
        raise InputError(f"cell direction {a} is not periodic")
    old = structure.cell.matrix
    new = old.copy()
    if (delta is None) == (fraction is None):
        raise InputError("specify exactly one of delta or fraction")
    if fraction is not None:
        delta = fraction * old[a, b]
    new[a, b] = old[a, b] + delta
    frac = structure.positions @ np.linalg.inv(old)
    newcell = CellTensor(new, structure.cell.periodic)
    if all(newcell.periodic) and np.linalg.det(new) <= 0:
        raise InputError("strain produced a non-positive cell determinant")
    return structure.with_positions(frac @ new).with_cell(newcell)


def relaxable_components(cell: CellTensor, driven: tuple[int, int] | None,
                         diagonal_only: bool = True) -> list[tuple[int, int]]:
    """Cell components free to relax: every periodic component except the
    driven one (optionally restricted to the diagonal)."""
    comps = []
    for a in cell.periodic_axes():
        cols = [a] if diagonal_only else range(3)
        for b in cols:
            if (a, b) != driven:
                comps.append((a, b))
    return comps


def cell_stress(structure: AtomicStructure, energy_fn, strain_step: float = 1e-5) -> StressTensor:
    """Cauchy stress from central finite differences of the total energy
    under affine strain.

    ``energy_fn(structure) -> eV``.  Requires a 3-D periodic cell; the
    result is symmetrized and returned in GPa.
    """
    cell = structure.cell
    if cell is None or not all(cell.periodic):
        raise InputError("cell_stress requires a fully periodic cell")
    V = cell.volume
    sigma = np.zeros((3, 3))
    for a in range(3):
        for b in range(a, 3):
            eps = np.zeros((3, 3))
            if a == b:
                eps[a, a] = 1.0
            else:
                eps[a, b] = eps[b, a] = 0.5
            ep = energy_fn(apply_deformation(structure, np.eye(3) + strain_step * eps))
            em = energy_fn(apply_deformation(structure, np.eye(3) - strain_step * eps))
            sigma[a, b] = sigma[b, a] = (ep - em) / (2.0 * strain_step * V)
    return StressTensor.from_matrix(sigma * EV_A3_GPA)
