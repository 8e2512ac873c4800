"""Lattice images, close pairs and the overlap guard, cell deformation,
and numerical cell stress.

lattice_translations is the one builder of lattice images: the home
image, then one image of each +-t pair.  The dispersion kernels sum over
those images themselves; close_pairs finds the pairs within a radius
without an N x N array, for bond detection and for guard_overlap, the
one code that names a pair closer than OVERLAP_GUARD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import GeometryError, InputError, check_count
from .structure import OVERLAP_GUARD, AtomicStructure, CellTensor
from .units import BOHR_ANGSTROM, EV_A3_GPA

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


def lattice_translations(cell, shells):
    """Integer offsets (M, 3) and translations offset @ cell [Bohr] (M, 3)
    of the home image, then one image of each +-t pair (_lattice_offsets
    order), within ``shells`` cells on each periodic axis or within a tuple
    of one count per axis (see image_reach).  Without a cell, the home alone."""
    if not isinstance(shells, tuple):
        check_count("shells", shells)
        shells = (shells,) * 3
    if cell is None:
        return np.zeros((1, 3), int), np.zeros((1, 3))
    offsets = np.array(_lattice_offsets([s if p else 0 for s, p in zip(shells, cell.periodic)]))
    return offsets, (offsets @ cell.matrix) / BOHR_ANGSTROM


def image_reach(structure: AtomicStructure, r: float) -> tuple[int, int, int]:
    """Per axis, the largest |o_a| at which atoms i and j + o can be closer
    than ``r`` [A]: they are at least h_a |f_ia - f_ja - o_a| apart, with f
    the fractional coordinates and h_a the lattice-plane spacing, so
    |o_a| <= floor(r / h_a + spread_a), spread_a the range of f_a."""
    cell = structure.cell
    if cell is None or not len(structure):
        return (0, 0, 0)
    inv = np.linalg.inv(cell.matrix)
    spread = np.ptp(structure.positions @ inv, axis=0)
    height = 1.0 / np.linalg.norm(inv, axis=0)
    return tuple(int(np.floor(r / h + s)) if p else 0
                 for h, s, p in zip(height, spread, cell.periodic))


def extent_order(pos_t):
    """The axis along which the (3, N) positions ``pos_t`` extend furthest,
    and the stable order of the atoms along it."""
    axis = int(np.argmax(pos_t.max(axis=1) - pos_t.min(axis=1))) if pos_t.shape[1] else 0
    return axis, np.argsort(pos_t[axis], kind="stable")


def close_pairs(structure: AtomicStructure, r: float, reach):
    """The pairs within ``r`` [A] over the images of
    lattice_translations(cell, reach), found without an N x N array.

    Yields (offset, i, j, r2) for every image in that order: its integer
    offset (3,), the pairs (i, j) with r2 <= r^2 in row-major order, i < j
    in the home image, and r2 = |x_i - (x_j + t)|^2 [Bohr^2] with x = R in
    Bohr, summed over the components in order.  The atoms are sorted once
    along their longest extent (extent_order); per image, two binary
    searches find each atom's window of partners whose projections lie
    within r, so the work grows with the pairs in the windows.
    """
    offsets, trans = lattice_translations(structure.cell, reach)
    pos_t = np.ascontiguousarray(structure.positions.T) / BOHR_ANGSTROM
    n = len(structure)
    rb = r / BOHR_ANGSTROM
    axis, order = extent_order(pos_t)
    x = pos_t[:, order]
    key = x[axis]
    atoms = np.arange(n)
    scale = rb + np.abs(key).max(initial=0.0)
    for offset, t in zip(offsets, trans):
        shifted = key + t[axis]
        # the window is widened past the rounding of the projections; r2 decides
        pad = rb + 8 * np.finfo(float).eps * (scale + abs(t[axis]))
        lo = np.searchsorted(shifted, key - pad, "left")
        hi = np.searchsorted(shifted, key + pad, "right")
        home = not offset.any()
        if home:
            lo = np.maximum(lo, atoms + 1)  # each unordered pair once
        count = np.maximum(hi - lo, 0)
        b = np.repeat(lo - (np.cumsum(count) - count), count)
        b += np.arange(len(b))  # atom a's partners lo_a ... hi_a - 1, for every a
        # d = x_a - (x_b + t) in sorted order; at home, swapping a and b
        # below only flips its sign
        d = x.take(b, axis=1)
        d += t[:, None]
        np.subtract(np.repeat(x, count, axis=1), d, out=d)
        d *= d
        r2 = d[0] + d[1] + d[2]
        keep = np.flatnonzero(r2 <= rb * rb)
        i, j, r2 = order[np.repeat(atoms, count)[keep]], order[b[keep]], r2[keep]
        if home:
            i, j = np.minimum(i, j), np.maximum(i, j)
        rows = np.argsort(i * n + j)
        yield offset, i[rows], j[rows], r2[rows]


def guard_overlap(structure: AtomicStructure, reach) -> None:
    """Raises GeometryError for the first pair closer than OVERLAP_GUARD over
    the images of lattice_translations(cell, reach): the first image in that
    order, then the smallest (i, j).  Every kernel that finds a pair below
    the guard calls this, so one text names an overlap."""
    guard2 = (OVERLAP_GUARD / BOHR_ANGSTROM) ** 2
    trans = lattice_translations(structure.cell, reach)[1]
    for t, (offset, i, j, r2) in zip(trans, close_pairs(structure, OVERLAP_GUARD, reach)):
        hit = np.flatnonzero(r2 < guard2)
        if len(hit):
            k = hit[0]
            where = ("in the home cell" if not offset.any() else "at lattice translation "
                     f"{np.round(t * BOHR_ANGSTROM, 6).tolist()} A")
            raise GeometryError(f"atoms {i[k]} and {j[k]} {where} are "
                                f"{np.sqrt(r2[k]) * BOHR_ANGSTROM:.4f} A apart "
                                f"(overlap guard {OVERLAP_GUARD} A)")


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
    return [(a, b) for a in cell.periodic_axes() for b in ([a] if diagonal_only else range(3))
            if (a, b) != driven]


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
            eps[a, b] += 0.5
            eps[b, a] += 0.5
            ep = energy_fn(apply_deformation(structure, np.eye(3) + _STRAIN_STEP * eps))
            em = energy_fn(apply_deformation(structure, np.eye(3) - _STRAIN_STEP * eps))
            sigma[a, b] = sigma[b, a] = (ep - em) / (2.0 * _STRAIN_STEP * V)
    return StressTensor(sigma * EV_A3_GPA)
