"""Lattice images, cell deformation, and numerical cell stress."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import GeometryError, InputError
from .structure import AtomicStructure, CellTensor
from .units import BOHR_ANGSTROM, EV_A3_GPA

_FAR = 1e30  # Bohr; masks the self pairs of the home image without inf * 0 = nan
_STRAIN_STEP = 1e-5  # central-difference strain of cell_stress


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


def paired_separations(structure: AtomicStructure, images: ImageSet | None):
    """Difference vectors over the home image, then one image of each +-t pair.

    Yields (home, d, r2) per image: d = R_i - (R_j + t) as a (3, N, N)
    array [Bohr] and r2 = |d|^2, with the self pairs of the home image
    pushed far away.  d and r2 are allocated once and overwritten by the
    next image.  Sums over all images follow from these: a paired image
    stands for both of its members, and the home image for half of its
    symmetric pair sum.  Raises GeometryError when a pair is closer than
    the structure's overlap guard.
    """
    if images is None:
        trans = np.zeros((1, 3))
    else:
        home = np.flatnonzero(images.shell_index == 0)
        if len(home) != 1:
            raise InputError(f"image set has {len(home)} home images (shell 0), expected 1")
        trans = images.translations[np.concatenate([home, images.half_set()])] / BOHR_ANGSTROM
    pos_t = np.ascontiguousarray(structure.positions.T) / BOHR_ANGSTROM
    guard2 = (structure.overlap_guard / BOHR_ANGSTROM) ** 2
    n = len(structure)
    d = np.empty((3, n, n))
    r2 = np.empty((n, n))
    for k, t in enumerate(trans):
        np.subtract(pos_t[:, :, None], (pos_t + t[:, None])[:, None, :], out=d)
        np.einsum("kij,kij->ij", d, d, out=r2)
        if k == 0:
            np.fill_diagonal(r2, _FAR * _FAR)
        if r2.min() < guard2:
            i, j = np.argwhere(r2 < guard2)[0]
            where = ("in the home cell" if k == 0 else "at lattice translation "
                     f"{np.round(t * BOHR_ANGSTROM, 6).tolist()} A")
            raise GeometryError(f"atoms {i} and {j} {where} are below the overlap guard")
        yield k == 0, d, r2


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
    """Symmetric Cauchy stress [GPa]."""

    sigma: np.ndarray  # (3, 3) GPa


def apply_deformation(structure: AtomicStructure, gradient: np.ndarray) -> AtomicStructure:
    """Apply a homogeneous deformation gradient F to cell and positions."""
    F = np.asarray(gradient, dtype=float)
    cell = structure.cell
    if cell is not None:
        cell = CellTensor(cell.matrix @ F.T, cell.periodic)
    return replace(structure, positions=structure.positions @ F.T, cell=cell)


def apply_cell_strain(structure: AtomicStructure, component: tuple[int, int],
                      delta: float) -> AtomicStructure:
    """Change one cell component by ``delta`` [A], remapping atoms affinely
    so that their fractional coordinates are preserved."""
    if structure.cell is None:
        raise InputError("structure has no cell to strain")
    a, b = component
    if not structure.cell.periodic[a]:
        raise InputError(f"cell direction {a} is not periodic")
    old = structure.cell.matrix
    new = old.copy()
    new[a, b] += delta
    if all(structure.cell.periodic) and np.linalg.det(new) <= 0:
        raise GeometryError("strain produced a non-positive cell determinant")
    # the deformation gradient F with new = old F^T
    return apply_deformation(structure, np.linalg.solve(old, new).T)


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


def cell_stress(structure: AtomicStructure, energy_fn) -> StressTensor:
    """Cauchy stress from central finite differences of the total energy
    under affine strain of _STRAIN_STEP.

    ``energy_fn(structure) -> eV``.  Requires a 3-D periodic cell; the
    result is symmetric and in GPa.
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
            ep = energy_fn(apply_deformation(structure, np.eye(3) + _STRAIN_STEP * eps))
            em = energy_fn(apply_deformation(structure, np.eye(3) - _STRAIN_STEP * eps))
            sigma[a, b] = sigma[b, a] = (ep - em) / (2.0 * _STRAIN_STEP * V)
    return StressTensor(sigma * EV_A3_GPA)
