"""Lattice images, cell deformation, and numerical cell stress."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import GeometryError, InputError
from .structure import OVERLAP_GUARD, AtomicStructure, CellTensor
from .units import BOHR_ANGSTROM, EV_A3_GPA

_FAR = 1e30  # Bohr; masks the self pairs of the home image without inf * 0 = nan
_STRAIN_STEP = 1e-5  # central-difference strain of cell_stress


def _lattice_offsets(reach) -> list[tuple[int, int, int]]:
    """Integer lattice offsets o with |o_a| <= reach[a], one of each +-o pair.

    Returns the zero offset first, then the lexicographically positive
    member of each pair, ordered by Chebyshev shell max |o_a| and
    lexicographically within a shell.  The pairs are chosen on the integer
    offsets, so the choice does not depend on the shape of the cell.
    """
    box = product(*(range(-r, r + 1) for r in reach))
    half = sorted((o for o in box if o > (0, 0, 0)), key=lambda o: (max(map(abs, o)), o))
    return [(0, 0, 0)] + half


def check_shells(shells) -> None:
    """InputError unless ``shells`` is an integer (numpy ones too) >= 0."""
    if not isinstance(shells, numbers.Integral) or shells < 0:
        raise InputError(f"shells must be an integer >= 0, got {shells!r}")


def paired_separations(structure: AtomicStructure, shells: int = 0):
    """Difference vectors over the home image, then one image of each +-t pair.

    The images are the lattice translations t with at most ``shells`` cells
    along each periodic axis.  Yields (home, d, r2) per image: d = R_i -
    (R_j + t) as a (3, N, N) array [Bohr] and r2 = |d|^2, with the self
    pairs of the home image pushed far away.  d and r2 are allocated once
    and overwritten by the next image.  Sums over all images follow from
    these: a paired image stands for both of its members, and the home
    image for half of its symmetric pair sum.  Raises GeometryError when a
    pair is closer than the overlap guard.
    """
    check_shells(shells)
    cell = structure.cell
    if cell is None:
        trans = np.zeros((1, 3))
    else:
        offsets = np.array(_lattice_offsets([shells if p else 0 for p in cell.periodic]))
        trans = (offsets @ cell.matrix) / BOHR_ANGSTROM
    pos_t = np.ascontiguousarray(structure.positions.T) / BOHR_ANGSTROM
    guard2 = (OVERLAP_GUARD / BOHR_ANGSTROM) ** 2
    n = len(structure)
    d = np.empty((3, n, n))
    r2 = np.empty((n, n))
    for k, t in enumerate(trans):
        # a quarter faster than one broadcast np.subtract at N ~ 100; same bits
        d[...] = pos_t[:, :, None]
        d -= (pos_t + t[:, None])[:, None, :]
        np.einsum("kij,kij->ij", d, d, out=r2)
        if k == 0:
            np.fill_diagonal(r2, _FAR * _FAR)
        if r2.min() < guard2:
            i, j = np.argwhere(r2 < guard2)[0]
            where = ("in the home cell" if k == 0 else "at lattice translation "
                     f"{np.round(t * BOHR_ANGSTROM, 6).tolist()} A")
            raise GeometryError(f"atoms {i} and {j} {where} are "
                                f"{np.sqrt(r2[i, j]) * BOHR_ANGSTROM:.4f} A apart "
                                f"(overlap guard {OVERLAP_GUARD} A)")
        yield k == 0, d, r2


@dataclass(frozen=True)
class StressTensor:
    """Symmetric Cauchy stress [GPa]."""

    sigma: np.ndarray  # (3, 3) GPa


def apply_deformation(structure: AtomicStructure, gradient: np.ndarray) -> AtomicStructure:
    """Apply a homogeneous deformation gradient F to cell and positions.

    F must keep the orientation (det F > 0), else GeometryError: a cell
    mapped through det F <= 0 is inverted or flat, with its atoms mirrored.
    """
    F = np.asarray(gradient, dtype=float)
    if not np.linalg.det(F) > 0:
        raise GeometryError("deformation gradient has det F <= 0: the cell would "
                            "invert or collapse")
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
